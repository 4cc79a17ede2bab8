#include "api/index_registry.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "util/timer.h"

namespace ah {

namespace {

/// A non-owning shared_ptr view of an externally owned graph (adopted
/// registries; the caller guarantees the graph outlives every epoch).
std::shared_ptr<const Graph> UnownedGraph(const Graph& g) {
  return std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g);
}

}  // namespace

IndexRegistry::IndexRegistry(Graph base,
                             const std::vector<std::string>& backends,
                             const OracleOptions& options)
    : names_(backends), options_(options) {
  if (names_.empty()) {
    throw std::invalid_argument("IndexRegistry: no backends");
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    for (std::size_t j = i + 1; j < names_.size(); ++j) {
      if (names_[i] == names_[j]) {
        throw std::invalid_argument("IndexRegistry: duplicate backend '" +
                                    names_[i] + "'");
      }
    }
  }
  num_nodes_ = base.NumNodes();
  num_arcs_ = base.NumArcs();
  base_ = std::make_shared<const Graph>(std::move(base));
  default_backend_ = names_.front();
  current_.resize(names_.size());
  backend_rebuilds_.resize(names_.size());
  // First generation: the calling thread builds the first backend while
  // every other backend builds on its own thread, so a cold start costs the
  // slowest build rather than the sum. A registry is still never observable
  // half-built: all builders join before the constructor returns, and the
  // first failure in list order is rethrown (MakeOracle throws on an
  // unknown name).
  std::vector<std::unique_ptr<DistanceOracle>> oracles(names_.size());
  std::vector<std::exception_ptr> errors(names_.size());
  // The builders read the guarded base_ through this local (constructor
  // bodies are exempt from the lock analysis; lambdas are not).
  const Graph& graph = *base_;
  const auto build = [&](std::size_t i) {
    try {
      oracles[i] = MakeOracle(names_[i], graph, options_);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> builders;  // Joined on scope exit.
    for (std::size_t i = 1; i < names_.size(); ++i) {
      builders.emplace_back(build, i);
    }
    build(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    auto epoch = std::make_shared<IndexEpoch>();
    epoch->backend = names_[i];
    epoch->backend_id = static_cast<std::uint32_t>(i);
    epoch->generation = 1;
    epoch->graph = base_;
    epoch->oracle = std::move(oracles[i]);
    current_[i] = std::move(epoch);
  }
  worker_ = std::thread([this] { WorkerLoop(); });
}

std::shared_ptr<IndexRegistry> IndexRegistry::AdoptStatic(
    std::unique_ptr<DistanceOracle> oracle) {
  if (!oracle) {
    throw std::invalid_argument("IndexRegistry::AdoptStatic: null oracle");
  }
  auto registry = std::shared_ptr<IndexRegistry>(new IndexRegistry());
  registry->is_static_ = true;
  registry->names_ = {std::string(oracle->Name())};
  registry->num_nodes_ = oracle->graph().NumNodes();
  registry->num_arcs_ = oracle->graph().NumArcs();
  auto epoch = std::make_shared<IndexEpoch>();
  epoch->backend = registry->names_.front();
  epoch->backend_id = 0;
  epoch->generation = 1;
  epoch->graph = UnownedGraph(oracle->graph());
  epoch->oracle = std::move(oracle);
  // Not a constructor body, so the analysis checks guarded fields here:
  // take the (uncontended) writer lock rather than suppressing it.
  WriterMutexLock lock(registry->epochs_mu_);
  registry->default_backend_ = registry->names_.front();
  registry->current_.push_back(std::move(epoch));
  return registry;
}

IndexRegistry::~IndexRegistry() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
}

bool IndexRegistry::HasBackend(std::string_view name) const {
  return BackendId(name) != kInvalidBackend;
}

std::uint32_t IndexRegistry::BackendId(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  return kInvalidBackend;
}

std::string IndexRegistry::DefaultBackend() const {
  ReaderMutexLock lock(epochs_mu_);
  return default_backend_;
}

bool IndexRegistry::SetDefaultBackend(std::string_view name) {
  if (!HasBackend(name)) return false;
  WriterMutexLock lock(epochs_mu_);
  default_backend_ = std::string(name);
  return true;
}

EpochHandle IndexRegistry::Current(std::string_view backend) const {
  ReaderMutexLock lock(epochs_mu_);
  std::string_view name = backend.empty() ? default_backend_ : backend;
  const std::uint32_t id = BackendId(name);
  if (id == kInvalidBackend) return nullptr;
  return current_[id];
}

std::uint64_t IndexRegistry::Generation(std::string_view backend) const {
  const EpochHandle epoch = Current(backend);
  return epoch ? epoch->generation : 0;
}

IndexRegistry::UpdateStatus IndexRegistry::QueueWeightUpdate(NodeId u, NodeId v,
                                                             Weight w) {
  if (is_static_) return UpdateStatus::kStatic;
  const WeightDelta delta{u, v, w};
  MutexLock lock(mu_);
  switch (ValidateWeightDelta(*base_, delta)) {
    case DeltaStatus::kBadNode:
      return UpdateStatus::kBadNode;
    case DeltaStatus::kBadWeight:
      return UpdateStatus::kBadWeight;
    case DeltaStatus::kNoSuchArc:
      return UpdateStatus::kNoSuchArc;
    case DeltaStatus::kOk:
      break;
  }
  // Coalesce per arc (last weight wins): the pending set stays bounded by
  // the arc count even under a continuous update stream.
  const std::uint64_t arc_key =
      (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
  pending_[arc_key] = delta;
  return UpdateStatus::kQueued;
}

IndexRegistry::UpdateStatus IndexRegistry::QueueWeightUpdates(
    std::span<const WeightDelta> deltas, std::size_t* first_bad) {
  if (is_static_) return UpdateStatus::kStatic;
  MutexLock lock(mu_);
  // Validate-all-then-queue-all: a bulk file is one atomic batch, so a bad
  // record halfway through must not leave a half-ingested pending set.
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    switch (ValidateWeightDelta(*base_, deltas[i])) {
      case DeltaStatus::kBadNode:
        if (first_bad != nullptr) *first_bad = i;
        return UpdateStatus::kBadNode;
      case DeltaStatus::kBadWeight:
        if (first_bad != nullptr) *first_bad = i;
        return UpdateStatus::kBadWeight;
      case DeltaStatus::kNoSuchArc:
        if (first_bad != nullptr) *first_bad = i;
        return UpdateStatus::kNoSuchArc;
      case DeltaStatus::kOk:
        break;
    }
  }
  for (const WeightDelta& delta : deltas) {
    const std::uint64_t arc_key =
        (static_cast<std::uint64_t>(delta.tail) << 32) |
        static_cast<std::uint64_t>(delta.head);
    pending_[arc_key] = delta;
  }
  return UpdateStatus::kQueued;
}

std::size_t IndexRegistry::PendingUpdates() const {
  MutexLock lock(mu_);
  return pending_.size();
}

bool IndexRegistry::RequestReload(std::string* error) {
  if (is_static_) {
    if (error != nullptr) {
      *error = "registry is static (adopted oracle, no owned base graph)";
    }
    return false;
  }
  {
    MutexLock lock(mu_);
    reload_requested_ = true;
  }
  cv_.NotifyAll();
  return true;
}

void IndexRegistry::WaitForRebuild() const {
  MutexLock lock(mu_);
  while (reload_requested_ || rebuild_in_flight_) cv_.Wait(lock);
}

bool IndexRegistry::RebuildInFlight() const {
  MutexLock lock(mu_);
  return rebuild_in_flight_ || reload_requested_;
}

void IndexRegistry::SetRebuildPolicy(RebuildPolicy policy) {
  MutexLock lock(mu_);
  rebuild_policy_ = policy;
}

IndexRegistry::RebuildPolicy IndexRegistry::GetRebuildPolicy() const {
  MutexLock lock(mu_);
  return rebuild_policy_;
}

void IndexRegistry::SetMinReloadInterval(std::chrono::milliseconds interval) {
  {
    MutexLock lock(mu_);
    min_reload_interval_ = interval;
  }
  // Wake a worker holding off under the previous (longer) interval.
  cv_.NotifyAll();
}

void IndexRegistry::SetIncrementalFactoryForTest(IncrementalFactory factory) {
  MutexLock lock(mu_);
  incremental_factory_for_test_ = std::move(factory);
}

IndexRegistry::RegistryStats IndexRegistry::GetStats() const {
  MutexLock lock(mu_);
  RegistryStats stats;
  stats.reloads = reloads_;
  stats.swaps = swaps_;
  stats.updates_applied = updates_applied_;
  stats.pending_updates = pending_.size();
  stats.rebuild_in_flight = rebuild_in_flight_ || reload_requested_;
  stats.last_error = last_error_;
  stats.backend_rebuilds = backend_rebuilds_;
  return stats;
}

std::uint64_t IndexRegistry::AddSwapListener(SwapListener listener) {
  MutexLock lock(mu_);
  const std::uint64_t token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void IndexRegistry::RemoveSwapListener(std::uint64_t token) {
  MutexLock lock(mu_);
  // Block while a notification round holds copies of the listeners, so a
  // listener's owner (e.g. an engine being destroyed) can rely on its
  // callback never running after removal returns.
  while (notifying_) cv_.Wait(lock);
  std::erase_if(listeners_,
                [token](const auto& entry) { return entry.first == token; });
}

void IndexRegistry::SetWarmupHook(WarmupHook hook) {
  MutexLock lock(mu_);
  // Block while a warm-up round is running unlocked, so the caller can
  // clear the hook (e.g. in its destructor) and know it will never fire
  // again — the same handshake RemoveSwapListener uses.
  while (warming_) cv_.Wait(lock);
  warmup_hook_ = std::move(hook);
}

void IndexRegistry::Publish(EpochHandle epoch) {
  {
    WriterMutexLock lock(epochs_mu_);
    current_[epoch->backend_id] = epoch;
  }
  std::vector<SwapListener> to_notify;
  {
    MutexLock lock(mu_);
    ++swaps_;
    to_notify.reserve(listeners_.size());
    for (const auto& [token, listener] : listeners_) {
      to_notify.push_back(listener);
    }
    notifying_ = true;
  }
  // Listeners run without the registry lock: they may re-enter Current()
  // (and take their own locks, e.g. the engine's session-pool mutex).
  for (const SwapListener& listener : to_notify) listener(epoch);
  {
    MutexLock lock(mu_);
    notifying_ = false;
  }
  cv_.NotifyAll();
}

void IndexRegistry::WorkerLoop() {
  while (true) {
    std::vector<WeightDelta> deltas;
    std::shared_ptr<const Graph> old_base;
    RebuildPolicy policy;
    IncrementalFactory incremental_factory;
    {
      MutexLock lock(mu_);
      while (!stop_ && !reload_requested_) cv_.Wait(lock);
      if (stop_) return;
      // Rate limit: hold the cycle until min_reload_interval_ has elapsed
      // since the previous cycle started. reload_requested_ stays true, so
      // WaitForRebuild() callers keep blocking, and requests/deltas arriving
      // during the hold-off coalesce into this one deferred cycle — a
      // continuous feed produces a bounded rebuild frequency.
      while (!stop_) {
        const auto ready = last_cycle_start_ + min_reload_interval_;
        const auto now = std::chrono::steady_clock::now();
        if (now >= ready) break;
        cv_.WaitFor(lock, ready - now);
      }
      if (stop_) return;
      last_cycle_start_ = std::chrono::steady_clock::now();
      reload_requested_ = false;
      rebuild_in_flight_ = true;
      deltas.reserve(pending_.size());
      // lint:ordered-commit — hash-order collection is sorted canonically
      // below; coalesced deltas touch distinct arcs, so application also
      // commutes.
      for (auto& [arc_key, delta] : pending_) deltas.push_back(delta);
      pending_.clear();
      old_base = base_;
      policy = rebuild_policy_;
      incremental_factory = incremental_factory_for_test_;
    }
    // Canonical order for application and for the updates_applied_ ledger:
    // never let unordered_map iteration order leak into anything observable.
    std::sort(deltas.begin(), deltas.end(),
              [](const WeightDelta& a, const WeightDelta& b) {
                return std::pair(a.tail, a.head) < std::pair(b.tail, b.head);
              });

    // Everything expensive happens lock-free: copy + delta application,
    // then one index rebuild per backend. Queries keep flowing against the
    // old epochs the whole time.
    std::shared_ptr<const Graph> next_base = old_base;
    DeltaApplyStats apply_stats;
    if (!deltas.empty()) {
      Graph updated = *old_base;
      apply_stats = ApplyWeightDeltas(&updated, deltas);
      next_base = std::make_shared<const Graph>(std::move(updated));
    }
    {
      MutexLock lock(mu_);
      // New weight updates queued from here on validate against (and later
      // apply on top of) the updated base. The ledger counts what actually
      // landed in the graph, not the batch size (per-arc queue coalescing
      // makes them equal today; the apply stats keep it true by contract).
      base_ = next_base;
      updates_applied_ += apply_stats.applied;
    }
    for (std::size_t i = 0; i < names_.size(); ++i) {
      Timer rebuild_timer;
      auto epoch = std::make_shared<IndexEpoch>();
      epoch->backend = names_[i];
      epoch->backend_id = static_cast<std::uint32_t>(i);
      epoch->graph = next_base;
      EpochHandle previous;
      {
        ReaderMutexLock lock(epochs_mu_);
        previous = current_[i];
      }
      epoch->generation = previous->generation + 1;

      // Frozen-order first: queued deltas are weights-only by construction
      // (graph/weight_update never touches topology), so the live oracle's
      // structural decisions stay valid on the updated graph. Backends
      // without an incremental path return nullptr and build from scratch;
      // an incremental *failure* must never take the backend down — record
      // it and fall back to a from-scratch build.
      bool incremental = false;
      std::unique_ptr<DistanceOracle> oracle;
      if (policy == RebuildPolicy::kFrozenOrder && previous->oracle) {
        try {
          oracle = incremental_factory
                       ? incremental_factory(*previous->oracle, *next_base)
                       : previous->oracle->RebuildWithFrozenOrder(*next_base);
          incremental = oracle != nullptr;
        } catch (const std::exception& e) {
          MutexLock lock(mu_);
          ++backend_rebuilds_[i].fallbacks;
          last_error_ = names_[i] + " (incremental): " + e.what();
        }
      }
      if (!oracle) {
        try {
          oracle = MakeOracle(names_[i], *next_base, options_);
        } catch (const std::exception& e) {
          MutexLock lock(mu_);
          last_error_ = names_[i] + ": " + e.what();
          continue;  // keep the old epoch serving
        }
      }
      epoch->oracle = std::move(oracle);
      {
        MutexLock lock(mu_);
        BackendRebuildStats& rb = backend_rebuilds_[i];
        ++(incremental ? rb.incremental : rb.full);
        rb.last_rebuild_seconds = rebuild_timer.Seconds();
      }
      // Warm-up runs pre-publish: the fresh epoch is primed (e.g. the
      // server recomputes its hottest cache entries on it) while the old
      // epoch still answers every request, so the swap lands with a warm
      // cache instead of a cold start.
      WarmupHook warmup;
      {
        MutexLock lock(mu_);
        warmup = warmup_hook_;
        warming_ = warmup != nullptr;
      }
      if (warmup) {
        try {
          warmup(*epoch);
        } catch (const std::exception& e) {
          MutexLock lock(mu_);
          last_error_ = names_[i] + " (warmup): " + e.what();
        } catch (...) {
          MutexLock lock(mu_);
          last_error_ = names_[i] + " (warmup): unknown failure";
        }
        {
          MutexLock lock(mu_);
          warming_ = false;
        }
        cv_.NotifyAll();
      }
      // Swap this backend in as soon as it is ready — faster backends go
      // live while slower ones are still rebuilding.
      Publish(std::move(epoch));
    }
    {
      MutexLock lock(mu_);
      ++reloads_;
      rebuild_in_flight_ = false;
    }
    cv_.NotifyAll();
  }
}

}  // namespace ah
