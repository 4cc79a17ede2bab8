// Shared-index query engine over an epoch-versioned IndexRegistry: queries
// from many threads are answered through pooled QuerySessions, each pinned
// to the epoch (graph snapshot + built oracle) it was created over — the
// serving-side counterpart of the index/session split in
// api/distance_oracle.h, now lifecycle-aware (api/index_registry.h).
//
// Three ways in:
//   * Batch: BatchDistance / BatchShortestPath fan a query vector across
//     WorkerThreads() via util/parallel.h, one leased session per worker.
//     Results are positionally deterministic (each query is answered
//     independently), so output is identical at any thread count.
//   * Interactive: Lease(backend) hands out an RAII session for a
//     caller-managed thread; Distance/ShortestPath are one-shot
//     conveniences that lease internally.
//   * Async: SubmitAsync enqueues a job onto a lazily started long-lived
//     worker pool (server front-ends; jobs lease their own sessions).
//
// Epoch discipline: a lease holds an EpochHandle, so the index it queries
// cannot be retired mid-query. When the registry swaps a new epoch in, the
// engine's swap listener purges pooled sessions of the retired epoch —
// released leases against the old epoch are dropped rather than pooled, so
// the old index is destroyed as soon as its last in-flight lease returns.
// All public methods are thread-safe.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/distance_oracle.h"
#include "api/index_registry.h"
#include "routing/path.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace ah {

/// One (source, target) batch query.
using QueryPair = std::pair<NodeId, NodeId>;

class ConcurrentEngine {
 public:
  /// Serves the registry's backends. `num_threads` caps batch fan-out and
  /// the async worker pool (0 = the util/parallel.h WorkerThreads()
  /// default). Throws std::invalid_argument on a null registry.
  explicit ConcurrentEngine(std::shared_ptr<IndexRegistry> registry,
                            std::size_t num_threads = 0);

  /// Convenience: wraps one externally built oracle in a static
  /// single-backend registry (IndexRegistry::AdoptStatic). The oracle's
  /// graph must outlive the engine. Throws on a null oracle.
  explicit ConcurrentEngine(std::unique_ptr<DistanceOracle> oracle,
                            std::size_t num_threads = 0);

  /// Joins the async worker pool (draining any queued jobs). All
  /// SessionLeases must already be gone.
  ~ConcurrentEngine();

  IndexRegistry& registry() const { return *registry_; }
  std::size_t NumThreads() const { return num_threads_; }

  /// RAII lease of a pooled session over one pinned epoch: dereference to
  /// query, inspect epoch() for the backend/generation answered from,
  /// destroy (or move from) to return the session to the pool. A lease
  /// holds a pointer back into the engine and MUST NOT outlive it.
  class SessionLease {
   public:
    SessionLease(SessionLease&& other) noexcept
        : engine_(other.engine_),
          epoch_(std::move(other.epoch_)),
          session_(std::move(other.session_)) {
      other.engine_ = nullptr;
    }
    SessionLease& operator=(SessionLease&&) = delete;
    SessionLease(const SessionLease&) = delete;
    SessionLease& operator=(const SessionLease&) = delete;
    ~SessionLease();

    QuerySession& operator*() const { return *session_; }
    QuerySession* operator->() const { return session_.get(); }

    /// The epoch this session answers from — stable for the lease's
    /// lifetime even if the registry swaps underneath.
    const IndexEpoch& epoch() const { return *epoch_; }

   private:
    friend class ConcurrentEngine;
    SessionLease(ConcurrentEngine* engine, EpochHandle epoch,
                 std::unique_ptr<QuerySession> session)
        : engine_(engine),
          epoch_(std::move(epoch)),
          session_(std::move(session)) {}

    ConcurrentEngine* engine_;
    EpochHandle epoch_;
    std::unique_ptr<QuerySession> session_;
  };

  /// Leases a session over the current epoch of `backend` (empty = the
  /// registry's default backend), reusing a pooled session when one exists
  /// for that epoch. Throws std::invalid_argument on an unknown backend.
  SessionLease Lease(std::string_view backend = {});

  /// One-shot conveniences on the default backend; thread-safe.
  Dist Distance(NodeId s, NodeId t);
  PathResult ShortestPath(NodeId s, NodeId t);

  /// Answers all queries on `backend` (empty = default), fanned across
  /// worker threads; results[i] matches queries[i]. `num_threads` overrides
  /// the engine's fan-out for this call (0 = engine default) — the bench
  /// sweeps it; servers leave it alone. The whole batch is answered from
  /// one epoch (acquired once up front).
  std::vector<Dist> BatchDistance(const std::vector<QueryPair>& queries,
                                  std::size_t num_threads = 0,
                                  std::string_view backend = {});
  std::vector<PathResult> BatchShortestPath(
      const std::vector<QueryPair>& queries, std::size_t num_threads = 0,
      std::string_view backend = {});

  /// Many-to-many surface: the row-major |sources| × |targets| matrix on
  /// `backend`'s current epoch (see DistanceOracle::DistanceMatrix).
  /// `num_threads` overrides the engine fan-out for this call (0 = engine
  /// default). Thread-safe.
  std::vector<Dist> DistanceMatrix(std::span<const NodeId> sources,
                                   std::span<const NodeId> targets,
                                   std::size_t num_threads = 0,
                                   std::string_view backend = {}) const;

  /// Callback-style submit for server front-ends: enqueues `fn` to run on a
  /// lazily started pool of NumThreads() long-lived workers. Jobs run FIFO
  /// and lease sessions themselves (so each job picks up the freshest
  /// epoch); `fn` must not throw. The queue is unbounded — callers wanting
  /// load shedding put an admission controller in front
  /// (src/server/admission.h).
  void SubmitAsync(std::function<void()> fn) AH_EXCLUDES(async_mu_);

  /// Jobs submitted via SubmitAsync that have not yet started executing —
  /// the queue-depth signal admission control and stats export read.
  std::size_t AsyncQueueDepth() const AH_EXCLUDES(async_mu_);

 private:
  /// A pooled idle session together with the epoch it was created over.
  struct PooledSession {
    EpochHandle epoch;
    std::unique_ptr<QuerySession> session;
  };

  // Runs body(session, begin, end) over chunks of [0, n) on `num_threads`
  // workers, each holding one leased session for the whole batch.
  template <typename Body>
  void RunBatch(std::size_t n, std::size_t num_threads,
                std::string_view backend, const Body& body);

  PooledSession Acquire(std::string_view backend) AH_EXCLUDES(mu_);
  void Release(PooledSession entry) AH_EXCLUDES(mu_);
  /// Drops pooled sessions whose epoch is not `fresh` for that backend.
  void PurgeStale(const EpochHandle& fresh) AH_EXCLUDES(mu_);

  // Body of each async worker thread: pop jobs FIFO until stop.
  void AsyncWorkerLoop() AH_EXCLUDES(async_mu_);

  std::shared_ptr<IndexRegistry> registry_;
  std::uint64_t swap_listener_token_ = 0;
  std::size_t num_threads_;
  Mutex mu_;
  std::vector<PooledSession> pool_ AH_GUARDED_BY(mu_);

  // Async submit state: workers are spawned on the first SubmitAsync and
  // joined by the destructor after draining the queue.
  mutable Mutex async_mu_;
  CondVar async_cv_;
  std::deque<std::function<void()>> async_queue_ AH_GUARDED_BY(async_mu_);
  /// Mutated only by the first SubmitAsync (under async_mu_) and joined by
  /// the destructor, which runs single-threaded by contract — the one
  /// access pattern the analysis cannot express, so left unannotated.
  std::vector<std::thread> async_workers_;
  bool async_stop_ AH_GUARDED_BY(async_mu_) = false;
};

}  // namespace ah
