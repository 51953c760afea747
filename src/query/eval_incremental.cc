#include "query/eval_incremental.h"

#include <utility>

#include "util/exec_context.h"

namespace rpqlearn {

using eval_internal::BuildBinaryTables;
using eval_internal::MonadicSweeper;
using eval_internal::MonadicSweepScratchBytes;
using eval_internal::RoundCounters;

namespace {

/// Folds one sweep's counters into EvalOptions.stats, mirroring eval.cc's
/// AccumulateMonadicRounds so maintenance reports through the same counters
/// as a from-scratch evaluation.
void FoldMonadicCounters(EvalStats* stats, const RoundCounters& totals) {
  if (stats == nullptr) return;
  stats->monadic_sparse_rounds.fetch_add(totals.sparse,
                                         std::memory_order_relaxed);
  stats->pairs_settled.fetch_add(totals.pairs, std::memory_order_relaxed);
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

// ----------------------------------------------------- MaterializedMonadic

MaterializedMonadic::MaterializedMonadic(const Graph& graph, const Dfa& query,
                                         EvalOptions validated)
    : graph_(&graph), frozen_(query), validated_(std::move(validated)) {
  tables_ = BuildBinaryTables(graph, frozen_);
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
                          MonadicSweepScratchBytes(num_pairs));
  if (!charge.ok()) {
    stale_ = true;
    return exec->TripStatus();
  }
  // Rebuilt, not reused: the monadic sweeper's reached() bitmap has no
  // per-batch reset path (one materialization is one perpetual sweep).
  sweeper_ = std::make_unique<MonadicSweeper>(*graph_, tables_);
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
