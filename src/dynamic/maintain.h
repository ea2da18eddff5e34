// Incremental maintenance of coreness under edge updates, in the spirit
// of Aridhi, Brugnara, Montresor, Velegrakis (DEBS 2016) — the dynamic
// extension the paper cites.
//
// The exact weighted coreness is the GREATEST fixpoint of the per-node
// map F(b)_v = max{ k : sum_{u in N(v): b_u >= k} w(uv) >= k } (the
// Algorithm 3 update). Chaotic iteration of the monotone map F from any
// state that dominates the fixpoint pointwise descends to it; this gives
// two provably correct, LOCAL update rules:
//
//   * DELETION: coreness can only decrease, so the pre-update values
//     dominate the post-update fixpoint. A worklist seeded with the two
//     endpoints descends locally — typically touching a handful of nodes.
//
//   * INSERTION of weight w: c_new(x) <= c_old(x) + w for every x (a new
//     edge raises any subgraph's min degree by at most w), so lifting
//     values by w dominates the new fixpoint. The lift need not be
//     global: only nodes in the candidate REGION computed by
//     CollectInsertRegion can rise at all, so lifting the region and
//     seeding the descent with it is exact. The region is the closure,
//     from the eligible endpoints, of the edge relation
//         x -> y  iff  c(y) < c(x) + w  and  CanRise(y),
//     where CanRise(y) is the local support test
//         sum_{z in N(y): c(z) + w > c(y)} w(yz) > c(y).
//     Soundness: every node y whose coreness rises (y not an endpoint)
//     must keep support at its new level c'(y) > c(y), and if no
//     supporting neighbor had risen the same support would certify
//     F(c)_y > c(y) in the OLD graph — contradicting the fixpoint. So
//     every riser has a RISING neighbor z with c'(z) >= c'(y), which
//     gives c(y) < c(z) + w; chains of such supporters only terminate at
//     an endpoint whose rise is enabled by the new edge itself
//     (c(u) < c(v) + w). A riser outside the closure would make the
//     state "old values outside / new values inside" a pre-fixpoint of
//     the OLD map strictly above the old fixpoint — impossible, since
//     the coreness is the greatest such state (Knaster–Tarski). A
//     pendant insertion therefore touches O(1) nodes, not O(n).
//
// InsertEdgeGlobalOracle keeps the original global lift-everything
// descent as a slow reference: tests assert the localized path lands on
// the bit-identical fixpoint under adversarial churn.
//
// The maintained values are asserted (in tests) to equal a from-scratch
// recomputation after arbitrary update sequences.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace kcore::dynamic {

using NodeId = graph::NodeId;

struct UpdateStats {
  // Nodes whose value was recomputed while draining the worklist.
  std::size_t recomputations = 0;
  // Nodes whose coreness actually changed.
  std::size_t changed = 0;
  // Size of the candidate region that was lifted (insertions only).
  std::size_t region = 0;
};

class DynamicCoreMaintenance {
 public:
  // Starts from an edgeless graph on n nodes (all coreness 0).
  explicit DynamicCoreMaintenance(NodeId n);
  // Starts from an existing simple graph (computes the fixpoint).
  explicit DynamicCoreMaintenance(const graph::Graph& g);

  // Inserts an undirected edge (parallel edges allowed; self-loops not).
  // Localized: lifts and descends only the candidate region reachable
  // from the endpoints (see file comment), so the cost is proportional
  // to the affected neighborhood, not to n.
  UpdateStats InsertEdge(NodeId u, NodeId v, double w = 1.0);

  // Slow reference for tests: the original global lift (every node +w,
  // descent seeded with all nodes). Lands on the same fixpoint as
  // InsertEdge bit-for-bit; costs Theta(n + m) per call.
  UpdateStats InsertEdgeGlobalOracle(NodeId u, NodeId v, double w = 1.0);

  // Deletes one edge u-v with the given weight (must exist).
  // Returns stats; check `found` on the result of HasEdge first if
  // unsure.
  UpdateStats DeleteEdge(NodeId u, NodeId v, double w = 1.0);

  bool HasEdge(NodeId u, NodeId v, double w = 1.0) const;

  // Grows the node universe to at least n nodes (new nodes are isolated,
  // coreness 0). Existing values are untouched; the streaming server
  // uses this to admit never-before-seen ids.
  void EnsureNodes(NodeId n);

  // Current coreness values (always the exact fixpoint).
  const std::vector<double>& coreness() const { return core_; }

  NodeId num_nodes() const { return static_cast<NodeId>(adj_.size()); }
  std::size_t num_edges() const { return m_; }

  // Exports the current graph (for cross-checking in tests).
  graph::Graph Snapshot() const;

 private:
  struct Slot {
    NodeId to;
    double w;
  };

  // Recomputes F(core_)_v into the member scratch buffers (no per-call
  // allocation once the buffers have grown to the max degree seen).
  double Recompute(NodeId v);
  // Descends to the greatest fixpoint from the current (dominating)
  // state; worklist seeded by `seeds`.
  UpdateStats Descend(std::span<const NodeId> seeds);
  // Appends the adjacency slots of a new u-v edge.
  void AddSlots(NodeId u, NodeId v, double w);
  // Fills region_ with the candidate rising set for an insert of weight
  // w on edge (u, v); region_mark_ flags members (callers must clear).
  void CollectInsertRegion(NodeId u, NodeId v, double w);
  // True if y's local support allows a coreness above core_[y] after a
  // +w lift of its neighbors (necessary condition for rising).
  bool CanRise(NodeId y, double w) const;

  std::vector<std::vector<Slot>> adj_;
  std::vector<double> core_;
  std::size_t m_ = 0;

  // Reusable scratch (sized to the graph / max degree; never shrunk).
  std::vector<char> queued_;        // Descend: worklist membership
  std::vector<char> region_mark_;   // CollectInsertRegion: membership
  std::vector<NodeId> region_;      // CollectInsertRegion: members
  std::vector<NodeId> worklist_;    // Descend: FIFO worklist
  std::vector<double> before_;      // InsertEdge: pre-lift region values
  std::vector<double> scratch_values_;
  std::vector<std::uint32_t> scratch_order_;
};

}  // namespace kcore::dynamic
