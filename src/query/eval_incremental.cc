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
  reads_label_.assign(tables_.num_shared, 0);
  for (const auto& transitions : tables_.transitions) {
    for (const auto& [symbol, target] : transitions) reads_label_[symbol] = 1;
  }
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
  Status built = materialized->BuildFixedPoint(
      build_exec != nullptr ? build_exec : materialized->validated_.exec);
  if (!built.ok()) return built;
  return materialized;
}

Status MaterializedMonadic::BuildFixedPoint(ExecContext* exec) {
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
  const uint32_t nv = tables_.nv;
  for (StateId q : tables_.accepting_states) {
    for (NodeId v = 0; v < nv; ++v) sweeper_->Visit(v, q, SelectHook());
  }
  Status converged = Converge(exec);
  if (!converged.ok()) return converged;
  stale_ = false;
  ++mstats_.full_evals;
  RecordSyncedVersions();
  return Status::Ok();
}

Status MaterializedMonadic::Converge(ExecContext* exec) {
  RoundCounters rounds;
  while (sweeper_->frontier_pairs() > 0) {
    if (exec != nullptr && !exec->Checkpoint()) break;
    sweeper_->RunRound(SelectHook(), &rounds);
  }
  FoldMonadicCounters(validated_.stats, rounds);
  if (exec != nullptr && exec->tripped()) {
    stale_ = true;
    queue_.clear();
    sweeper_.reset();  // torn sweep; the next rebuild starts clean
    return exec->TripStatus();
  }
  sweeper_->ReleaseFrontier();
  return Status::Ok();
}

void MaterializedMonadic::Drop(NodeId v, StateId q) {
  sweeper_->Unmark(v, q);
  if (q == tables_.q0) result_.Reset(v);
}

bool MaterializedMonadic::Anchored(NodeId u, StateId p) const {
  for (const auto& [symbol, target] : tables_.transitions[p]) {
    if (tables_.accepting_flag[target] != 0 &&
        !graph_->OutNeighbors(u, symbol).empty()) {
      return true;
    }
  }
  return false;
}

bool MaterializedMonadic::HasReachedSuccessor(NodeId u, StateId p) const {
  for (const auto& [symbol, target] : tables_.transitions[p]) {
    for (NodeId v : graph_->OutNeighbors(u, symbol)) {
      if (sweeper_->Reached(v, target)) return true;
    }
  }
  return false;
}

Status MaterializedMonadic::Repair(ExecContext* exec) {
  MonadicSweeper& sweeper = *sweeper_;
  const uint32_t nq = tables_.nq;

  // Over-delete. A deleted edge (s, a, d) can only have supported the
  // cells (s, p) whose successor (d, δ(p, a)) is reached. Every seed is
  // judged against the fixed point as it stood before this batch: judged
  // after an earlier delete's drops, a cell whose successor that delete
  // dropped would be missed. Accepting cells hold without any edge, and
  // anchored cells through one, so neither drops.
  std::vector<std::pair<NodeId, StateId>> dropped;
  bool withhold_rederive = false;
  for (const QueuedUpdate& update : queue_) {
    if (update.insert) continue;
    ++mstats_.delete_repairs;
    withhold_rederive |= update.withheld;
    for (StateId p = 0; p < nq; ++p) {
      const StateId t = frozen_.Next(p, update.label);
      if (t == kNoState || tables_.accepting_flag[p] != 0 ||
          !sweeper.Reached(update.src, p) ||
          !sweeper.Reached(update.dst, t) || Anchored(update.src, p)) {
        continue;
      }
      dropped.emplace_back(update.src, p);
    }
  }
  size_t kept = 0;
  for (const auto& [v, q] : dropped) {
    if (!sweeper.Reached(v, q)) continue;  // seeded by two deletes
    Drop(v, q);
    dropped[kept++] = {v, q};
  }
  dropped.resize(kept);
  // Everything reached through a dropped cell over the live graph drops
  // too, so what is left is inside the new least fixed point.
  for (size_t i = 0; i < dropped.size(); ++i) {
    const auto [v, q] = dropped[i];
    sweeper.ForEachPredecessor(v, q, [&](NodeId u, StateId p) {
      if (tables_.accepting_flag[p] != 0 || !sweeper.Reached(u, p) ||
          Anchored(u, p)) {
        return;
      }
      Drop(u, p);
      dropped.emplace_back(u, p);
    });
  }

  mstats_.overdeleted_cells += dropped.size();

  // Re-derive: a dropped cell with a live successor in what is left is in
  // the new fixed point; the rounds carry it to its predecessors.
  if (!withhold_rederive) {
    for (const auto& [u, p] : dropped) {
      if (HasReachedSuccessor(u, p)) sweeper.Visit(u, p, SelectHook());
    }
  }

  // Delta frontier of every queued insert whose edge is still live: an
  // insert a later delete of the batch removed supports nothing.
  for (const QueuedUpdate& update : queue_) {
    if (!update.insert) continue;
    uint64_t seeded = 0;
    if (!update.withheld &&
        graph_->HasEdge(update.src, update.label, update.dst)) {
      for (StateId p = 0; p < nq; ++p) {
        const StateId t = frozen_.Next(p, update.label);
        if (t == kNoState || !sweeper.Reached(update.dst, t) ||
            sweeper.Reached(update.src, p)) {
          continue;
        }
        sweeper.Visit(update.src, p, SelectHook());
        ++seeded;
      }
    }
    if (seeded > 0) {
      ++mstats_.insert_repairs;
      mstats_.delta_cells_seeded += seeded;
    } else {
      ++mstats_.insert_noops;
    }
  }

  Status converged = Converge(exec);
  if (!converged.ok()) return converged;
  ++mstats_.repairs;
  RecordSyncedVersions();
  return Status::Ok();
}

void MaterializedMonadic::RecordSyncedVersions() {
  // The fixed point now accounts for every update so far.
  queue_.clear();
  synced_version_ = graph_->version();
  expected_label_versions_.resize(tables_.num_shared);
  for (Symbol a = 0; a < tables_.num_shared; ++a) {
    expected_label_versions_[a] = graph_->label_version(a);
  }
}

bool MaterializedMonadic::QueueAccountsForVersions() const {
  for (Symbol a = 0; a < tables_.num_shared; ++a) {
    if (reads_label_[a] != 0 &&
        graph_->label_version(a) != expected_label_versions_[a]) {
      return false;
    }
  }
  return true;
}

bool MaterializedMonadic::in_sync() const {
  if (stale_ || !queue_.empty()) return false;
  return graph_->version() == synced_version_ || QueueAccountsForVersions();
}

void MaterializedMonadic::QueueUpdate(NodeId src, Symbol label, NodeId dst,
                                      bool insert) {
  bool& skip = insert ? skip_next_reseed_ : skip_next_rederive_;
  const bool withheld = skip;
  skip = false;
  if (label >= tables_.num_shared || reads_label_[label] == 0) {
    ++mstats_.untouched_updates;
    return;
  }
  if (stale_) return;
  if (queue_.size() >= kMaxQueuedUpdates) {
    // A batch this large costs about as much as a rebuild; stop queueing.
    stale_ = true;
    queue_.clear();
    return;
  }
  queue_.push_back({src, dst, label, insert, withheld});
  ++expected_label_versions_[label];
}

void MaterializedMonadic::OnCompact() { ++mstats_.compactions_observed; }

StatusOr<const BitVector*> MaterializedMonadic::Results(
    ExecContext* exec_override) {
  // The override governs only the work of this call; it is never retained
  // (a per-request context dies with its request).
  ExecContext* exec =
      exec_override != nullptr ? exec_override : validated_.exec;
  if (!stale_ && queue_.empty() && graph_->version() == synced_version_) {
    ++mstats_.warm_hits;
    return &result_;
  }
  if (!stale_ && !QueueAccountsForVersions()) stale_ = true;
  Status status = Status::Ok();
  if (stale_) {
    status = BuildFixedPoint(exec);
  } else if (queue_.empty()) {
    // Only labels the query never reads moved.
    synced_version_ = graph_->version();
    ++mstats_.warm_hits;
  } else {
    status = Repair(exec);
  }
  if (!status.ok()) return status;
  return &result_;
}

}  // namespace rpqlearn
