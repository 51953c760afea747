#include "query/eval_incremental.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <string>

#include "util/exec_context.h"

namespace rpqlearn {

using eval_internal::BinaryScratchBytes;
using eval_internal::BinarySweeper;
using eval_internal::BuildBinaryTables;
using eval_internal::BuildCondensePlan;
using eval_internal::GlobalGraphView;
using eval_internal::kLaneBatch;
using eval_internal::MonadicSweeper;
using eval_internal::MonadicSweepScratchBytes;
using eval_internal::ResolveDirectionPolicy;
using eval_internal::RoundCounters;
using eval_internal::TrackingGraphView;

namespace {

/// Per-batch fold into EvalOptions.stats, mirroring eval.cc's
/// AccumulateStats so materialized maintenance reports through the same
/// counters as a from-scratch binary evaluation.
void FoldBinaryCounters(EvalStats* stats,
                        std::span<const RoundCounters> per_batch) {
  if (stats == nullptr) return;
  RoundCounters totals;
  uint64_t dense_batches = 0;
  for (const RoundCounters& rounds : per_batch) {
    totals += rounds;
    if (rounds.dense > 0) ++dense_batches;
  }
  stats->sparse_rounds.fetch_add(totals.sparse, std::memory_order_relaxed);
  stats->dense_rounds.fetch_add(totals.dense, std::memory_order_relaxed);
  stats->dense_batches.fetch_add(dense_batches, std::memory_order_relaxed);
  stats->condensed_expansions.fetch_add(totals.condensed_expansions,
                                        std::memory_order_relaxed);
  stats->components_collapsed.fetch_add(totals.components_collapsed,
                                        std::memory_order_relaxed);
  stats->pairs_settled.fetch_add(totals.pairs, std::memory_order_relaxed);
}

/// Monadic counterpart (eval.cc's AccumulateMonadicRounds).
void FoldMonadicCounters(EvalStats* stats, const RoundCounters& totals) {
  if (stats == nullptr) return;
  stats->monadic_sparse_rounds.fetch_add(totals.sparse,
                                         std::memory_order_relaxed);
  stats->monadic_dense_rounds.fetch_add(totals.dense,
                                        std::memory_order_relaxed);
  stats->condensed_expansions.fetch_add(totals.condensed_expansions,
                                        std::memory_order_relaxed);
  stats->components_collapsed.fetch_add(totals.components_collapsed,
                                        std::memory_order_relaxed);
  stats->pairs_settled.fetch_add(totals.pairs, std::memory_order_relaxed);
}

/// Validated options with the condensation planner pinned off: retained
/// sweepers repair through per-edge rounds only (see the header comment),
/// so the plan must never activate — BuildCondensePlan then still fills the
/// `propagates` table the sweepers consult unconditionally.
EvalOptions PinCondenseOff(EvalOptions validated) {
  validated.condense = CondenseMode::kOff;
  return validated;
}

}  // namespace

uint64_t DfaFingerprint(const FrozenDfa& dfa) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;  // FNV-1a prime
  };
  mix(dfa.num_states());
  mix(dfa.num_symbols());
  mix(dfa.initial_state());
  for (StateId q = 0; q < dfa.num_states(); ++q) {
    mix(dfa.IsAccepting(q) ? 0x9e3779b97f4a7c15ull : 0x517cc1b727220a95ull);
    for (Symbol a = 0; a < dfa.num_symbols(); ++a) {
      // +1 keeps kNoState (an all-ones sentinel) distinct from state ids
      // without mapping any id onto another.
      mix(static_cast<uint64_t>(dfa.Next(q, a)) + 1);
    }
  }
  return h;
}

bool FrozenDfaStructurallyEqual(const FrozenDfa& a, const FrozenDfa& b) {
  if (a.num_states() != b.num_states() ||
      a.num_symbols() != b.num_symbols() ||
      a.initial_state() != b.initial_state()) {
    return false;
  }
  for (StateId q = 0; q < a.num_states(); ++q) {
    if (a.IsAccepting(q) != b.IsAccepting(q)) return false;
    for (Symbol s = 0; s < a.num_symbols(); ++s) {
      if (a.Next(q, s) != b.Next(q, s)) return false;
    }
  }
  return true;
}

// ------------------------------------------------------- MaterializedQuery

MaterializedQuery::MaterializedQuery(const Graph& graph, const Dfa& query,
                                     std::span<const NodeId> sources,
                                     EvalOptions validated)
    : graph_(&graph),
      frozen_(query),
      validated_(std::move(validated)),
      sources_(sources.begin(), sources.end()) {
  tables_ = BuildBinaryTables(graph, frozen_);
  BuildCondensePlan(graph, tables_, PinCondenseOff(validated_),
                    /*bounded=*/false, /*auto_needs_cache=*/false, &plan_);
  policy_ = ResolveDirectionPolicy(
      validated_, static_cast<size_t>(tables_.nv) * tables_.nq);
  dst_lists_.resize(sources_.size());
}

StatusOr<std::unique_ptr<MaterializedQuery>> MaterializedQuery::Create(
    const Graph& graph, const Dfa& query, std::span<const NodeId> sources,
    const EvalOptions& options) {
  StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
  if (!validated.ok()) return validated.status();
  for (NodeId src : sources) {
    if (src >= graph.num_nodes()) {
      return Status::InvalidArgument("materialized source " +
                                     std::to_string(src) + " out of range");
    }
  }
  std::unique_ptr<MaterializedQuery> materialized(
      new MaterializedQuery(graph, query, sources, std::move(*validated)));
  Status built = materialized->BuildFixedPoint();
  if (!built.ok()) return built;
  return materialized;
}

Status MaterializedQuery::BuildFixedPoint() {
  ExecContext* exec = validated_.exec;
  if (torn_) {
    // A tripped repair left sweeper scratch mid-representation; BeginBatch
    // cannot recover that (stale pending flags, a half-drained bitmap), so
    // the rebuild reconstructs the sweepers from scratch.
    sweepers_.clear();
    torn_ = false;
  }
  const size_t num_batches = (sources_.size() + kLaneBatch - 1) / kLaneBatch;
  // One persistent product-space scratch per batch; charged against the
  // budget up front, kept for the materialization's lifetime (+1 byte per
  // pair for the changed-cell flags of the tracking view).
  const size_t num_pairs = static_cast<size_t>(tables_.nv) * tables_.nq;
  ScopedExecCharge charge(
      sweepers_.empty() ? exec : nullptr,
      num_batches * (BinaryScratchBytes(num_pairs, plan_) + num_pairs));
  if (!charge.ok()) {
    stale_ = true;
    return exec->TripStatus();
  }
  sweepers_.resize(num_batches);

  std::vector<RoundCounters> per_batch;
  per_batch.reserve(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    BinarySweeper<TrackingGraphView>& sweeper = sweepers_[b];
    sweeper.Prepare(TrackingGraphView{graph_}, tables_, plan_, policy_, exec);
    const uint32_t lanes = static_cast<uint32_t>(
        std::min<size_t>(kLaneBatch, sources_.size() - b * kLaneBatch));
    sweeper.BeginBatch(lanes == kLaneBatch ? ~uint64_t{0}
                                           : (uint64_t{1} << lanes) - 1);
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      sweeper.Deliver(sources_[b * kLaneBatch + lane], tables_.q0,
                      uint64_t{1} << lane);
    }
    RoundCounters rounds;
    sweeper.RunRounds(&rounds);
    per_batch.push_back(rounds);
    if (exec != nullptr && exec->tripped()) {
      stale_ = true;
      torn_ = true;
      FoldBinaryCounters(validated_.stats, per_batch);
      return exec->TripStatus();
    }
  }
  FoldBinaryCounters(validated_.stats, per_batch);

  // Recover the per-source destination lists, and drain the changed-cell
  // tracking so later repairs observe only their own gains.
  num_results_ = 0;
  std::vector<std::vector<NodeId>> per_lane(kLaneBatch);
  for (size_t b = 0; b < num_batches; ++b) {
    sweepers_[b].ForEachChangedCell([](NodeId, StateId, uint64_t) {});
    const uint32_t lanes = static_cast<uint32_t>(
        std::min<size_t>(kLaneBatch, sources_.size() - b * kLaneBatch));
    for (uint32_t lane = 0; lane < lanes; ++lane) per_lane[lane].clear();
    sweepers_[b].CollectLanes(lanes, per_lane.data());
    for (uint32_t lane = 0; lane < lanes; ++lane) {
      dst_lists_[b * kLaneBatch + lane] = per_lane[lane];
      num_results_ += per_lane[lane].size();
    }
  }

  stale_ = false;
  ++mstats_.full_evals;
  RecordSyncedVersions();
  return Status::Ok();
}

void MaterializedQuery::RecordSyncedVersions() {
  synced_version_ = graph_->version();
  synced_label_versions_.resize(tables_.num_shared);
  for (Symbol a = 0; a < tables_.num_shared; ++a) {
    synced_label_versions_[a] = graph_->label_version(a);
  }
}

bool MaterializedQuery::in_sync() const {
  if (stale_) return false;
  if (graph_->version() == synced_version_) return true;
  for (Symbol a = 0; a < tables_.num_shared; ++a) {
    if (graph_->label_version(a) != synced_label_versions_[a]) return false;
  }
  return true;  // drift only on labels the query never reads
}

void MaterializedQuery::OnInsertEdge(NodeId src, Symbol label, NodeId dst) {
  const bool withhold = skip_next_reseed_;
  skip_next_reseed_ = false;
  if (stale_) return;  // a rebuild is pending and will see this edge
  if (label >= tables_.num_shared) {
    // Outside the query alphabet: no product edge can fire on it.
    ++mstats_.untouched_updates;
    RecordSyncedVersions();
    return;
  }

  ExecContext* exec = validated_.exec;
  uint64_t seeded = 0;
  std::vector<RoundCounters> per_batch;
  for (size_t b = 0; b < sweepers_.size(); ++b) {
    BinarySweeper<TrackingGraphView>& sweeper = sweepers_[b];
    bool any = false;
    if (!withhold) {
      // The delta frontier of edge (src, a, dst): exactly the cells
      // (dst, δ(q, a)) that (src, q)'s settled lanes can newly grow.
      for (StateId q = 0; q < tables_.nq; ++q) {
        const StateId t = frozen_.Next(q, label);
        if (t == kNoState) continue;
        const uint64_t fresh =
            sweeper.LaneMask(src, q) & ~sweeper.LaneMask(dst, t);
        if (fresh == 0) continue;
        sweeper.Deliver(dst, t, fresh);
        ++seeded;
        any = true;
      }
    }
    if (!any) continue;
    RoundCounters rounds;
    sweeper.RunRounds(&rounds);
    per_batch.push_back(rounds);
    if (exec != nullptr && exec->tripped()) {
      stale_ = true;
      torn_ = true;
      FoldBinaryCounters(validated_.stats, per_batch);
      return;
    }
    const uint32_t lanes = static_cast<uint32_t>(
        std::min<size_t>(kLaneBatch, sources_.size() - b * kLaneBatch));
    PatchResultLists(b, lanes);
  }
  FoldBinaryCounters(validated_.stats, per_batch);
  if (seeded > 0) {
    ++mstats_.insert_repairs;
    mstats_.delta_cells_seeded += seeded;
  } else {
    ++mstats_.insert_noops;
  }
  RecordSyncedVersions();
}

void MaterializedQuery::PatchResultLists(size_t batch, uint32_t lanes) {
  // Gained cells since the last drain → (lane, dst) candidates. The drained
  // mask holds *all* settled lanes of a gained cell, and another accepting
  // state may already contribute the same destination, so candidates are
  // deduplicated against the maintained lists by the sorted set-union.
  scratch_gains_.clear();
  sweepers_[batch].ForEachChangedCell(
      [this](NodeId v, StateId q, uint64_t mask) {
        if (!tables_.accepting_flag[q]) return;
        uint64_t h = mask;
        while (h != 0) {
          const int lane = std::countr_zero(h);
          h &= h - 1;
          scratch_gains_.emplace_back(static_cast<NodeId>(lane), v);
        }
      });
  if (scratch_gains_.empty()) return;
  std::sort(scratch_gains_.begin(), scratch_gains_.end());
  scratch_gains_.erase(
      std::unique(scratch_gains_.begin(), scratch_gains_.end()),
      scratch_gains_.end());

  size_t i = 0;
  std::vector<NodeId> candidates;
  std::vector<NodeId> merged;
  while (i < scratch_gains_.size()) {
    const NodeId lane = scratch_gains_[i].first;
    candidates.clear();
    while (i < scratch_gains_.size() && scratch_gains_[i].first == lane) {
      candidates.push_back(scratch_gains_[i].second);
      ++i;
    }
    if (lane >= lanes) continue;  // defensive: no such source in this batch
    std::vector<NodeId>& dsts = dst_lists_[batch * kLaneBatch + lane];
    merged.clear();
    merged.reserve(dsts.size() + candidates.size());
    std::set_union(dsts.begin(), dsts.end(), candidates.begin(),
                   candidates.end(), std::back_inserter(merged));
    num_results_ += merged.size() - dsts.size();
    dsts.assign(merged.begin(), merged.end());
  }
}

void MaterializedQuery::OnDeleteEdge(NodeId, Symbol label, NodeId) {
  skip_next_reseed_ = false;
  if (stale_) return;
  if (label >= tables_.num_shared) {
    ++mstats_.untouched_updates;
    RecordSyncedVersions();
    return;
  }
  // Non-monotone: settled lanes may have lost their only witness path. v1
  // invalidates at label granularity and rebuilds lazily at the next
  // Results() call.
  stale_ = true;
  ++mstats_.delete_fallbacks;
}

void MaterializedQuery::OnCompact() {
  // Semantically a no-op: the live edge set, version(), and every
  // label_version() are preserved, so the fixed point stays valid.
  ++mstats_.compactions_observed;
}

StatusOr<std::vector<std::pair<NodeId, NodeId>>> MaterializedQuery::Results() {
  if (stale_) {
    Status built = BuildFixedPoint();
    if (!built.ok()) return built;
  } else if (graph_->version() != synced_version_) {
    // Mutations bypassed the notifications. Per-label versions decide
    // whether any of them could touch the result.
    if (in_sync()) {
      synced_version_ = graph_->version();
      ++mstats_.warm_hits;
    } else {
      stale_ = true;
      Status built = BuildFixedPoint();
      if (!built.ok()) return built;
    }
  } else {
    ++mstats_.warm_hits;
  }

  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(num_results_);
  for (size_t i = 0; i < sources_.size(); ++i) {
    const NodeId src = sources_[i];
    for (NodeId dst : dst_lists_[i]) out.emplace_back(src, dst);
  }
  return out;
}

// ----------------------------------------------------- MaterializedMonadic

MaterializedMonadic::MaterializedMonadic(const Graph& graph, const Dfa& query,
                                         EvalOptions validated)
    : graph_(&graph), frozen_(query), validated_(std::move(validated)) {
  tables_ = BuildBinaryTables(graph, frozen_);
  BuildCondensePlan(graph, tables_, PinCondenseOff(validated_),
                    /*bounded=*/false, /*auto_needs_cache=*/false, &plan_);
  policy_ = ResolveDirectionPolicy(
      validated_, static_cast<size_t>(tables_.nv) * tables_.nq);
}

StatusOr<std::unique_ptr<MaterializedMonadic>> MaterializedMonadic::Create(
    const Graph& graph, const Dfa& query, const EvalOptions& options,
    ExecContext* build_exec) {
  StatusOr<EvalOptions> validated = ValidateEvalOptions(options);
  if (!validated.ok()) return validated.status();
  std::unique_ptr<MaterializedMonadic> materialized(
      new MaterializedMonadic(graph, query, std::move(*validated)));
  // The build-time context governs this one build and is never retained:
  // the materialization outlives the request that created it.
  ExecContext* retained = materialized->validated_.exec;
  if (build_exec != nullptr) materialized->validated_.exec = build_exec;
  Status built = materialized->BuildFixedPoint();
  materialized->validated_.exec = retained;
  if (!built.ok()) return built;
  return materialized;
}

Status MaterializedMonadic::BuildFixedPoint() {
  ExecContext* exec = validated_.exec;
  const size_t num_pairs = static_cast<size_t>(tables_.nv) * tables_.nq;
  ScopedExecCharge charge(sweeper_ == nullptr ? exec : nullptr,
                          MonadicSweepScratchBytes(num_pairs, plan_));
  if (!charge.ok()) {
    stale_ = true;
    return exec->TripStatus();
  }
  // Rebuilt, not reused: the monadic sweeper's reached() bitmap has no
  // per-batch reset path (one materialization is one perpetual sweep).
  sweeper_ = std::make_unique<MonadicSweeper<GlobalGraphView>>(
      GlobalGraphView{graph_}, tables_, plan_, policy_, exec);
  result_ = BitVector(graph_->num_nodes());
  const StateId q0 = tables_.q0;
  const auto hook = [this, q0](NodeId v, StateId q) {
    if (q == q0) result_.Set(v);
  };

  RoundCounters rounds;
  const uint32_t nv = tables_.nv;
  for (StateId q : tables_.accepting_states) {
    for (NodeId v = 0; v < nv; ++v) sweeper_->Visit(v, q, hook);
  }
  while (sweeper_->frontier_pairs() > 0) {
    if (exec != nullptr && !exec->Checkpoint()) break;
    sweeper_->RunRound(hook, &rounds);
  }
  FoldMonadicCounters(validated_.stats, rounds);
  if (exec != nullptr && exec->tripped()) {
    stale_ = true;
    sweeper_.reset();  // torn sweep; the next rebuild starts clean
    return exec->TripStatus();
  }

  stale_ = false;
  ++mstats_.full_evals;
  RecordSyncedVersions();
  return Status::Ok();
}

void MaterializedMonadic::RecordSyncedVersions() {
  synced_version_ = graph_->version();
  synced_label_versions_.resize(tables_.num_shared);
  for (Symbol a = 0; a < tables_.num_shared; ++a) {
    synced_label_versions_[a] = graph_->label_version(a);
  }
}

bool MaterializedMonadic::in_sync() const {
  if (stale_) return false;
  if (graph_->version() == synced_version_) return true;
  for (Symbol a = 0; a < tables_.num_shared; ++a) {
    if (graph_->label_version(a) != synced_label_versions_[a]) return false;
  }
  return true;
}

void MaterializedMonadic::OnInsertEdge(NodeId src, Symbol label, NodeId dst) {
  const bool withhold = skip_next_reseed_;
  skip_next_reseed_ = false;
  if (stale_) return;
  if (label >= tables_.num_shared) {
    ++mstats_.untouched_updates;
    RecordSyncedVersions();
    return;
  }

  ExecContext* exec = validated_.exec;
  const uint32_t nq = tables_.nq;
  const StateId q0 = tables_.q0;
  const auto hook = [this, q0](NodeId v, StateId q) {
    if (q == q0) result_.Set(v);
  };
  uint64_t seeded = 0;
  if (!withhold) {
    // Backward delta frontier of edge (src, a, dst): (src, q) is newly
    // accepting-reaching whenever (dst, δ(q, a)) already was.
    for (StateId q = 0; q < nq; ++q) {
      const StateId t = frozen_.Next(q, label);
      if (t == kNoState) continue;
      if (!sweeper_->reached().Test(static_cast<size_t>(dst) * nq + t)) {
        continue;
      }
      if (sweeper_->reached().Test(static_cast<size_t>(src) * nq + q)) {
        continue;
      }
      sweeper_->Visit(src, q, hook);
      ++seeded;
    }
  }
  if (seeded > 0) {
    RoundCounters rounds;
    while (sweeper_->frontier_pairs() > 0) {
      if (exec != nullptr && !exec->Checkpoint()) break;
      sweeper_->RunRound(hook, &rounds);
    }
    FoldMonadicCounters(validated_.stats, rounds);
    if (exec != nullptr && exec->tripped()) {
      stale_ = true;
      sweeper_.reset();
      return;
    }
    ++mstats_.insert_repairs;
    mstats_.delta_cells_seeded += seeded;
  } else {
    ++mstats_.insert_noops;
  }
  RecordSyncedVersions();
}

void MaterializedMonadic::OnDeleteEdge(NodeId, Symbol label, NodeId) {
  skip_next_reseed_ = false;
  if (stale_) return;
  if (label >= tables_.num_shared) {
    ++mstats_.untouched_updates;
    RecordSyncedVersions();
    return;
  }
  stale_ = true;
  ++mstats_.delete_fallbacks;
}

void MaterializedMonadic::OnCompact() { ++mstats_.compactions_observed; }

StatusOr<const BitVector*> MaterializedMonadic::Results(
    ExecContext* exec_override) {
  // The override governs only rebuilds performed by this call; it must not
  // survive into later rebuilds (a per-request context dies with its
  // request), so it is swapped in around BuildFixedPoint and restored.
  const auto rebuild = [this, exec_override]() {
    ExecContext* retained = validated_.exec;
    if (exec_override != nullptr) validated_.exec = exec_override;
    Status built = BuildFixedPoint();
    validated_.exec = retained;
    return built;
  };
  if (stale_) {
    Status built = rebuild();
    if (!built.ok()) return built;
  } else if (graph_->version() != synced_version_) {
    if (in_sync()) {
      synced_version_ = graph_->version();
      ++mstats_.warm_hits;
    } else {
      stale_ = true;
      Status built = rebuild();
      if (!built.ok()) return built;
    }
  } else {
    ++mstats_.warm_hits;
  }
  return &result_;
}

}  // namespace rpqlearn
