// Epoch-versioned index lifecycle: the layer that turns "build once, serve
// forever" into a living system. A registry owns one base road network and
// any number of named backends over it (the multi-variant serving setting of
// SALT, Efentakis et al. 2014, and of the VLDB'12 multi-method evaluation);
// for each backend it publishes an immutable *epoch* — a (graph snapshot,
// built oracle, generation) triple behind a shared_ptr.
//
// Lifecycle, RCU-style:
//   * Readers call Current(backend) and get an EpochHandle; everything the
//     handle reaches is immutable, so any number of threads query it
//     concurrently. The handle pins the epoch: an old epoch is destroyed
//     only when the last handle (session lease, pooled session, cache-free
//     reader) drops — never under a live query.
//   * Writers queue batched edge-weight deltas (QueueWeightUpdate) and then
//     RequestReload(). A single background worker copies the base graph,
//     applies the deltas, rebuilds every backend off-thread, and atomically
//     swaps each new epoch in as it becomes ready. No reader ever blocks on
//     a rebuild and no request is dropped by a swap.
//   * Each swap bumps the backend's generation. Downstream caches key
//     entries by (backend, generation), so a swap implicitly invalidates
//     only the stale backend's entries — no global flush.
//
// Adopted (static) registries wrap one externally built oracle so the
// engine/server layers run uniformly on handles; they serve queries but
// reject lifecycle operations (no owned base graph to mutate).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/distance_oracle.h"
#include "graph/graph.h"
#include "graph/weight_update.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace ah {

/// One published (graph, oracle, generation) snapshot of a backend.
/// Immutable after publication; reached only through shared_ptr handles.
/// `graph` is declared before `oracle` so the oracle (which references the
/// graph) is destroyed first.
struct IndexEpoch {
  std::string backend;              ///< Factory name (e.g. "ch").
  std::uint32_t backend_id = 0;     ///< Dense registry index — cache key part.
  std::uint64_t generation = 0;     ///< 1 on first build, bumped per swap.
  std::shared_ptr<const Graph> graph;
  std::unique_ptr<const DistanceOracle> oracle;

  /// Per-thread query session over this epoch's index (thread-safe).
  std::unique_ptr<QuerySession> NewSession() const {
    return oracle->NewSession();
  }
};

/// Shared, lifetime-pinning reference to an epoch.
using EpochHandle = std::shared_ptr<const IndexEpoch>;

class IndexRegistry {
 public:
  /// Outcome of queueing one weight update.
  enum class UpdateStatus {
    kQueued,     ///< Accepted; applies on the next reload.
    kBadNode,    ///< Endpoint out of range.
    kNoSuchArc,  ///< No arc tail→head in the base graph.
    kBadWeight,  ///< Zero or kMaxWeight weight.
    kStatic,     ///< Adopted registry: no owned base graph to mutate.
  };

  /// How the reload worker rebuilds each backend.
  enum class RebuildPolicy {
    /// Ask the live oracle for a frozen-order weights-only rebuild
    /// (DistanceOracle::RebuildWithFrozenOrder); backends without one — and
    /// any incremental attempt that throws — fall back to a from-scratch
    /// build. The default: queued deltas are weights-only by construction.
    kFrozenOrder,
    /// Always rebuild from scratch (the pre-incremental behavior; also the
    /// escape hatch if a frozen order has degraded after heavy churn).
    kFromScratch,
  };

  /// Per-backend rebuild ledger (RegistryStats::backend_rebuilds).
  struct BackendRebuildStats {
    std::uint64_t incremental = 0;  ///< Frozen-order rebuilds published.
    std::uint64_t full = 0;         ///< From-scratch rebuilds published.
    std::uint64_t fallbacks = 0;    ///< Incremental attempts that threw.
    double last_rebuild_seconds = 0;  ///< Duration of the last publication.
  };

  struct RegistryStats {
    std::uint64_t reloads = 0;          ///< Completed reload cycles.
    std::uint64_t swaps = 0;            ///< Epoch publications after the first.
    std::uint64_t updates_applied = 0;  ///< Deltas folded into a reload.
    std::size_t pending_updates = 0;    ///< Queued, not yet applied.
    bool rebuild_in_flight = false;
    std::string last_error;             ///< Last failed backend rebuild, if any.
    /// Indexed like Backends(); empty for adopted (static) registries.
    std::vector<BackendRebuildStats> backend_rebuilds;
  };

  /// Builds every backend in `backends` (distinct MakeOracle names; the
  /// first is the default backend) over a private copy of `base`. The
  /// builds run side by side, one thread per backend after the first, and
  /// all finish before the constructor returns. Throws std::invalid_argument
  /// on an empty or duplicated backend list or an unknown name; when several
  /// builds fail, the first failure in list order is the one thrown.
  IndexRegistry(Graph base, const std::vector<std::string>& backends,
                const OracleOptions& options = {});

  /// Wraps one externally built oracle as a static single-backend registry.
  /// The oracle's graph must outlive the registry (same contract the oracle
  /// itself has). Lifecycle operations report kStatic / failure.
  static std::shared_ptr<IndexRegistry> AdoptStatic(
      std::unique_ptr<DistanceOracle> oracle);

  /// Joins the background build worker. All epoch handles may outlive the
  /// registry (they are self-contained snapshots).
  ~IndexRegistry();

  IndexRegistry(const IndexRegistry&) = delete;
  IndexRegistry& operator=(const IndexRegistry&) = delete;

  // --- Backends -----------------------------------------------------------

  const std::vector<std::string>& Backends() const { return names_; }
  bool HasBackend(std::string_view name) const;
  /// Dense id of a backend (cache-key component); kInvalidBackend if unknown.
  std::uint32_t BackendId(std::string_view name) const;
  static constexpr std::uint32_t kInvalidBackend = 0xffffffffu;

  /// The backend unprefixed requests route to (the `use` admin verb).
  std::string DefaultBackend() const AH_EXCLUDES(epochs_mu_);
  bool SetDefaultBackend(std::string_view name) AH_EXCLUDES(epochs_mu_);

  // --- Epoch acquisition --------------------------------------------------

  /// Current epoch of `backend` (empty = default backend); nullptr if the
  /// backend is unknown. Thread-safe; O(#backends).
  EpochHandle Current(std::string_view backend = {}) const
      AH_EXCLUDES(epochs_mu_);

  /// Current generation of `backend` (0 if unknown).
  std::uint64_t Generation(std::string_view backend) const;

  /// Node/arc counts — invariant across epochs (weight-only updates).
  std::size_t NumNodes() const { return num_nodes_; }
  std::size_t NumArcs() const { return num_arcs_; }

  // --- Lifecycle ----------------------------------------------------------

  /// Queues one edge-weight delta for the next reload. Validated against
  /// the base graph (topology never changes, so validity is stable).
  /// Deltas coalesce per arc — the last queued weight for (u, v) wins — so
  /// the pending set is bounded by the arc count no matter how fast a
  /// traffic feed (or a hostile client) streams updates between reloads.
  UpdateStatus QueueWeightUpdate(NodeId u, NodeId v, Weight w)
      AH_EXCLUDES(mu_);

  /// Atomically queues a batch (the `updf` bulk-ingest path): every delta
  /// is validated against the base graph first, then either all are queued
  /// (coalescing per arc like QueueWeightUpdate) or none is. On failure the
  /// returned status describes the first invalid record and *first_bad
  /// (when non-null) is its index in `deltas`.
  UpdateStatus QueueWeightUpdates(std::span<const WeightDelta> deltas,
                                  std::size_t* first_bad = nullptr)
      AH_EXCLUDES(mu_);

  std::size_t PendingUpdates() const AH_EXCLUDES(mu_);

  /// Asks the background worker to apply queued deltas and rebuild + swap
  /// every backend. Returns immediately; false (with *error filled when
  /// non-null) on a static registry. Reloads requested while one is running
  /// coalesce into one further cycle.
  bool RequestReload(std::string* error = nullptr) AH_EXCLUDES(mu_);

  /// Blocks until no reload is requested or running (tests, smoke, REPL).
  void WaitForRebuild() const AH_EXCLUDES(mu_);
  bool RebuildInFlight() const AH_EXCLUDES(mu_);

  /// Rebuild strategy for subsequent reload cycles (default kFrozenOrder).
  void SetRebuildPolicy(RebuildPolicy policy) AH_EXCLUDES(mu_);
  RebuildPolicy GetRebuildPolicy() const AH_EXCLUDES(mu_);

  /// Rate limit: a reload cycle starts no sooner than this interval after
  /// the previous cycle started (default 0 = unlimited). Deltas and reload
  /// requests arriving during the hold-off keep coalescing into the one
  /// deferred cycle, so a continuous feed produces a bounded rebuild
  /// frequency instead of a rebuild per delta batch.
  void SetMinReloadInterval(std::chrono::milliseconds interval)
      AH_EXCLUDES(mu_);

  RegistryStats GetStats() const AH_EXCLUDES(mu_);

  /// Test seam: replaces the incremental rebuild step (normally
  /// `previous.RebuildWithFrozenOrder(g)`) so tests can force a failure and
  /// observe the from-scratch fallback. Pass nullptr to restore.
  using IncrementalFactory = std::function<std::unique_ptr<DistanceOracle>(
      const DistanceOracle& previous, const Graph& g)>;
  void SetIncrementalFactoryForTest(IncrementalFactory factory)
      AH_EXCLUDES(mu_);

  /// Registers a callback invoked (on the build worker thread, no registry
  /// lock held) after each epoch swap, with the new epoch. ConcurrentEngine
  /// uses this to purge pooled sessions of retired epochs so an idle pool
  /// cannot pin an old index alive. Returns a token for RemoveSwapListener.
  using SwapListener = std::function<void(const EpochHandle& published)>;
  std::uint64_t AddSwapListener(SwapListener listener) AH_EXCLUDES(mu_);
  void RemoveSwapListener(std::uint64_t token) AH_EXCLUDES(mu_);

  /// Registers the warm-up hook, invoked on the build worker thread with
  /// each rebuilt epoch immediately *before* it is published — while the
  /// old epoch still serves all traffic — so a server can re-prime its
  /// hottest cache entries against the fresh index before the swap makes
  /// them answer requests (swap listeners, by contrast, run after). One
  /// hook at a time; pass nullptr to clear. The call blocks while a warm-up
  /// round is running, so after SetWarmupHook(nullptr) returns the previous
  /// hook is guaranteed never to run again (the hook's owner relies on this
  /// in its destructor). A throwing hook is recorded in last_error and
  /// never delays the swap further.
  using WarmupHook = std::function<void(const IndexEpoch& fresh)>;
  void SetWarmupHook(WarmupHook hook) AH_EXCLUDES(mu_);

 private:
  IndexRegistry() = default;  // AdoptStatic body.

  void WorkerLoop() AH_EXCLUDES(mu_, epochs_mu_);
  /// Publishes `epoch` as current for its backend and notifies listeners.
  void Publish(EpochHandle epoch) AH_EXCLUDES(mu_, epochs_mu_);

  std::vector<std::string> names_;
  OracleOptions options_;
  bool is_static_ = false;
  std::size_t num_nodes_ = 0;
  std::size_t num_arcs_ = 0;

  /// Read-mostly epoch state on the per-query hot path (Current() runs on
  /// every lease acquire/release): readers take a shared lock and do not
  /// serialize each other; only a swap or `use` takes it exclusively.
  mutable SharedMutex epochs_mu_;
  std::vector<EpochHandle> current_ AH_GUARDED_BY(epochs_mu_);  // by id
  std::string default_backend_ AH_GUARDED_BY(epochs_mu_);

  /// Lifecycle coordination (updates, reload requests, worker handshake,
  /// stats) — never taken while epochs_mu_ is held, or vice versa.
  mutable Mutex mu_;
  mutable CondVar cv_;
  /// Latest-weight snapshot.
  std::shared_ptr<const Graph> base_ AH_GUARDED_BY(mu_);
  /// Pending deltas keyed by packed (tail, head): one slot per arc (deltas
  /// to distinct arcs commute, so application order does not matter).
  std::unordered_map<std::uint64_t, WeightDelta> pending_ AH_GUARDED_BY(mu_);
  bool reload_requested_ AH_GUARDED_BY(mu_) = false;
  bool rebuild_in_flight_ AH_GUARDED_BY(mu_) = false;
  /// A swap-listener round is running unlocked.
  bool notifying_ AH_GUARDED_BY(mu_) = false;
  /// The warm-up hook is running unlocked (pre-publish).
  bool warming_ AH_GUARDED_BY(mu_) = false;
  WarmupHook warmup_hook_ AH_GUARDED_BY(mu_);
  bool stop_ AH_GUARDED_BY(mu_) = false;
  std::uint64_t reloads_ AH_GUARDED_BY(mu_) = 0;
  std::uint64_t swaps_ AH_GUARDED_BY(mu_) = 0;
  std::uint64_t updates_applied_ AH_GUARDED_BY(mu_) = 0;
  std::string last_error_ AH_GUARDED_BY(mu_);
  RebuildPolicy rebuild_policy_ AH_GUARDED_BY(mu_) = RebuildPolicy::kFrozenOrder;
  std::chrono::milliseconds min_reload_interval_ AH_GUARDED_BY(mu_){0};
  /// Start of the last reload cycle (rate-limit anchor).
  std::chrono::steady_clock::time_point last_cycle_start_ AH_GUARDED_BY(mu_);
  /// Per-backend rebuild ledger, indexed like names_.
  std::vector<BackendRebuildStats> backend_rebuilds_ AH_GUARDED_BY(mu_);
  IncrementalFactory incremental_factory_for_test_ AH_GUARDED_BY(mu_);
  std::vector<std::pair<std::uint64_t, SwapListener>> listeners_
      AH_GUARDED_BY(mu_);
  std::uint64_t next_listener_token_ AH_GUARDED_BY(mu_) = 1;

  std::thread worker_;  // dynamic registries only
};

}  // namespace ah
