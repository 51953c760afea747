#ifndef RPQLEARN_GRAPH_GRAPH_H_
#define RPQLEARN_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/alphabet.h"
#include "automata/word.h"

namespace rpqlearn {

/// Dense node id of a graph database.
using NodeId = uint32_t;

/// One directed labeled edge (νo, a, νe) as stored in adjacency lists:
/// `node` is the other endpoint (target for out-edges, source for in-edges).
struct LabeledEdge {
  Symbol label;
  NodeId node;

  friend bool operator==(const LabeledEdge& a, const LabeledEdge& b) {
    return a.label == b.label && a.node == b.node;
  }
  friend bool operator<(const LabeledEdge& a, const LabeledEdge& b) {
    return a.label != b.label ? a.label < b.label : a.node < b.node;
  }
};

/// A graph database: a finite, directed, edge-labeled graph (Sec. 2 of the
/// paper), stored in CSR form with both forward and reverse adjacency, each
/// sorted by (label, endpoint). Build via GraphBuilder.
///
/// The CSR core is immutable, but the graph is *dynamic* through a
/// delta-edge overlay: InsertEdge/DeleteEdge record pending updates in
/// per-label buffers and patch the affected (node, label) adjacency cells
/// copy-on-write, so every accessor — both traversal directions, the
/// label-interleaved edge spans, degrees, path checks — serves the live
/// edge set while untouched cells keep reading the frozen base arrays.
/// Compact() folds the deltas into a fresh CSR. Mutations must be
/// externally synchronized against readers (the evaluation engines only
/// read); concurrent reads are safe. See docs/ARCHITECTURE.md,
/// "Dynamic graphs".
class Graph {
 public:
  /// An empty graph (0 nodes); assign a built graph over it.
  Graph() = default;

  uint32_t num_nodes() const {
    return out_offsets_.empty()
               ? 0
               : static_cast<uint32_t>(out_offsets_.size()) - 1;
  }
  size_t num_edges() const { return num_edges_; }
  uint32_t num_symbols() const { return alphabet_.size(); }
  const Alphabet& alphabet() const { return alphabet_; }

  /// Outgoing edges of `v`, sorted by (label, target).
  std::span<const LabeledEdge> OutEdges(NodeId v) const {
    if (has_deltas_) [[unlikely]] {
      if (const auto* patched = FindPatched(patched_out_edges_, v)) {
        return {patched->data(), patched->size()};
      }
    }
    return {out_edges_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }
  /// Incoming edges of `v`, sorted by (label, source).
  std::span<const LabeledEdge> InEdges(NodeId v) const {
    if (has_deltas_) [[unlikely]] {
      if (const auto* patched = FindPatched(patched_in_edges_, v)) {
        return {patched->data(), patched->size()};
      }
    }
    return {in_edges_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  /// Outgoing edges of `v` labeled `a` (a contiguous subrange of OutEdges).
  std::span<const LabeledEdge> OutEdgesWithLabel(NodeId v, Symbol a) const;

  /// Targets of `v --a-->` edges, ascending. Backed by a label-grouped CSR
  /// index (`num_nodes × num_symbols` offsets into a flat target array), so
  /// the evaluation inner loops iterate exactly the neighbors under one label
  /// with no per-edge label filtering and no binary search.
  std::span<const NodeId> OutNeighbors(NodeId v, Symbol a) const {
    const size_t cell = static_cast<size_t>(v) * num_symbols() + a;
    if (has_deltas_) [[unlikely]] {
      if (const auto* patched = FindPatched(patched_out_cells_, cell)) {
        return {patched->data(), patched->size()};
      }
    }
    return {out_targets_.data() + out_label_offsets_[cell],
            out_label_offsets_[cell + 1] - out_label_offsets_[cell]};
  }
  /// Sources of `--a--> v` edges, ascending.
  std::span<const NodeId> InNeighbors(NodeId v, Symbol a) const {
    const size_t cell = static_cast<size_t>(v) * num_symbols() + a;
    if (has_deltas_) [[unlikely]] {
      if (const auto* patched = FindPatched(patched_in_cells_, cell)) {
        return {patched->data(), patched->size()};
      }
    }
    return {in_sources_.data() + in_label_offsets_[cell],
            in_label_offsets_[cell + 1] - in_label_offsets_[cell]};
  }

  /// Display name of node `v` ("v<id>" unless set at build time).
  const std::string& NodeName(NodeId v) const { return names_[v]; }

  /// Looks up a node by display name; returns num_nodes() if absent.
  /// Linear scan — intended for fixtures and examples, not hot paths.
  NodeId FindNodeByName(std::string_view name) const;

  /// True iff some path starting at `from` spells `word` (i.e.
  /// `word ∈ paths_G(from)`), by subset simulation. Exact but O(|w|·|V|·deg);
  /// used by tests and small examples.
  bool HasPathFrom(NodeId from, const Word& word) const;

  /// True iff some path from `from` to `to` spells `word` (binary
  /// semantics, `word ∈ paths2_G(from, to)`).
  bool HasPathBetween(NodeId from, NodeId to, const Word& word) const;

  /// Out-degree of `v`.
  uint32_t OutDegree(NodeId v) const {
    if (has_deltas_) [[unlikely]] {
      return static_cast<uint32_t>(OutEdges(v).size());
    }
    return static_cast<uint32_t>(out_offsets_[v + 1] - out_offsets_[v]);
  }

  // --- delta-edge overlay ---------------------------------------------

  /// True iff the edge `src --label--> dst` is in the live edge set (base
  /// CSR plus pending deltas). O(log deg).
  bool HasEdge(NodeId src, Symbol label, NodeId dst) const;

  /// Adds the edge `src --label--> dst` to the overlay. Returns false (a
  /// no-op, no version bump) when the edge is already live — inserts are
  /// idempotent, matching GraphBuilder's duplicate collapsing. Endpoints
  /// must be existing nodes and `label` an interned symbol: the overlay
  /// mutates edges, never the node set or the alphabet.
  bool InsertEdge(NodeId src, Symbol label, NodeId dst);

  /// Removes the edge `src --label--> dst` from the overlay — equally a
  /// base edge (recorded in the label's delete buffer) or a pending delta
  /// edge (its insert is cancelled). Returns false (a no-op) when the edge
  /// is not live. When a mutation sequence returns the live set to the base
  /// set exactly, all delta state is dropped and reads return to the
  /// unpatched fast path.
  bool DeleteEdge(NodeId src, Symbol label, NodeId dst);

  /// Folds every pending delta into a fresh CSR (base arrays rebuilt,
  /// buffers and patches cleared). Semantically a no-op — the live edge set
  /// is unchanged — so version() and every label_version() are preserved:
  /// derived-structure caches keyed on them stay valid across compaction.
  void Compact();

  /// True iff any delta is pending (reads take the patched slow path).
  bool has_deltas() const { return has_deltas_; }

  /// Pending overlay entries (buffered inserts plus buffered deletes,
  /// summed over every label). 0 after Compact().
  size_t num_pending_deltas() const;

  /// Mutation counter: bumped by every successful InsertEdge/DeleteEdge,
  /// preserved by Compact(). Derived results (MaterializedMonadic) record
  /// it when they sync and re-sync when it moved — a stale result can
  /// therefore never serve a mutated graph.
  uint64_t version() const { return version_; }

  /// Per-label mutation counter: bumped only by updates carrying `a`.
  /// Derived results key invalidation on it, so an update touching only
  /// labels a query does not read leaves its result valid.
  uint64_t label_version(Symbol a) const { return label_versions_[a]; }

 private:
  friend class GraphBuilder;

  template <typename Map>
  static const typename Map::mapped_type* FindPatched(
      const Map& map, typename Map::key_type key) {
    const auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
  }

  /// Per-label overlay buffers: pending (src, dst) pairs, each kept sorted.
  /// An edge is live iff it is (in the base CSR and not in deletes) or in
  /// inserts; the two buffers are disjoint and inserts never name base
  /// edges.
  struct LabelDelta {
    std::vector<std::pair<NodeId, NodeId>> inserts;
    std::vector<std::pair<NodeId, NodeId>> deletes;
  };

  bool HasBaseEdge(NodeId src, Symbol label, NodeId dst) const;
  void PatchAdjacency(NodeId src, Symbol label, NodeId dst, bool insert);
  void DropDeltaStateIfClean();

  Alphabet alphabet_;
  std::vector<std::string> names_;
  std::vector<size_t> out_offsets_;  // num_nodes + 1
  std::vector<LabeledEdge> out_edges_;
  std::vector<size_t> in_offsets_;
  std::vector<LabeledEdge> in_edges_;
  // Label-grouped CSR: offsets are num_nodes × num_symbols + 1; cell (v, a)
  // spans the neighbors of v under label a in the flat endpoint arrays.
  std::vector<uint32_t> out_label_offsets_;
  std::vector<NodeId> out_targets_;
  std::vector<uint32_t> in_label_offsets_;
  std::vector<NodeId> in_sources_;
  // Delta-edge overlay. The base arrays above stay frozen while deltas are
  // pending; a (node, label) cell or a node's interleaved edge list with at
  // least one delta is materialized patched (base content ± deltas) in the
  // maps below and fully supersedes its base run. num_edges_ is the live
  // count (base ± net deltas).
  bool has_deltas_ = false;
  size_t num_edges_ = 0;
  uint64_t version_ = 0;
  std::vector<uint64_t> label_versions_;  // per symbol
  std::vector<LabelDelta> label_deltas_;  // per symbol
  std::unordered_map<uint64_t, std::vector<NodeId>> patched_out_cells_;
  std::unordered_map<uint64_t, std::vector<NodeId>> patched_in_cells_;
  std::unordered_map<NodeId, std::vector<LabeledEdge>> patched_out_edges_;
  std::unordered_map<NodeId, std::vector<LabeledEdge>> patched_in_edges_;
};

/// Accumulates nodes and edges, then produces an immutable Graph.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Adds one node; `name` defaults to "v<id>".
  NodeId AddNode(std::string_view name = "");

  /// Adds `count` anonymous nodes; returns the id of the first.
  NodeId AddNodes(uint32_t count);

  /// Interns an edge-label string.
  Symbol InternLabel(std::string_view label) {
    return alphabet_.Intern(label);
  }

  /// Pre-interns labels so symbol ids are assigned in a chosen order even if
  /// edges arrive in a different order.
  void InternLabels(const std::vector<std::string>& labels);

  /// Adds the edge `src --label--> dst`; both nodes must already exist.
  void AddEdge(NodeId src, Symbol label, NodeId dst);

  /// Convenience overload interning the label string.
  void AddEdge(NodeId src, std::string_view label, NodeId dst) {
    AddEdge(src, InternLabel(label), dst);
  }

  uint32_t num_nodes() const { return static_cast<uint32_t>(names_.size()); }

  /// Builds the CSR graph. Duplicate edges are collapsed. The builder is
  /// left empty afterwards.
  Graph Build();

 private:
  struct RawEdge {
    NodeId src;
    Symbol label;
    NodeId dst;
  };
  Alphabet alphabet_;
  std::vector<std::string> names_;
  std::vector<RawEdge> edges_;
};

}  // namespace rpqlearn

#endif  // RPQLEARN_GRAPH_GRAPH_H_
