#include "api/concurrent_engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/parallel.h"

namespace ah {

ConcurrentEngine::ConcurrentEngine(std::shared_ptr<IndexRegistry> registry,
                                   std::size_t num_threads)
    : registry_(std::move(registry)),
      num_threads_(num_threads == 0 ? WorkerThreads() : num_threads) {
  if (!registry_) {
    throw std::invalid_argument("ConcurrentEngine: null registry");
  }
  swap_listener_token_ = registry_->AddSwapListener(
      [this](const EpochHandle& fresh) { PurgeStale(fresh); });
}

ConcurrentEngine::ConcurrentEngine(std::unique_ptr<DistanceOracle> oracle,
                                   std::size_t num_threads)
    : ConcurrentEngine(IndexRegistry::AdoptStatic(std::move(oracle)),
                       num_threads) {}

ConcurrentEngine::~ConcurrentEngine() {
  registry_->RemoveSwapListener(swap_listener_token_);
  {
    MutexLock lock(async_mu_);
    async_stop_ = true;
  }
  async_cv_.NotifyAll();
  for (std::thread& worker : async_workers_) worker.join();
}

void ConcurrentEngine::SubmitAsync(std::function<void()> fn) {
  {
    MutexLock lock(async_mu_);
    if (async_workers_.empty()) {
      async_workers_.reserve(num_threads_);
      for (std::size_t i = 0; i < num_threads_; ++i) {
        async_workers_.emplace_back([this] { AsyncWorkerLoop(); });
      }
    }
    async_queue_.push_back(std::move(fn));
  }
  async_cv_.NotifyOne();
}

std::size_t ConcurrentEngine::AsyncQueueDepth() const {
  MutexLock lock(async_mu_);
  return async_queue_.size();
}

void ConcurrentEngine::AsyncWorkerLoop() {
  while (true) {
    std::function<void()> job;
    {
      MutexLock lock(async_mu_);
      while (!async_stop_ && async_queue_.empty()) async_cv_.Wait(lock);
      // Drain the queue even when stopping: every submitted job runs, so a
      // callback-carrying job can always deliver its reply.
      if (async_queue_.empty()) break;
      job = std::move(async_queue_.front());
      async_queue_.pop_front();
    }
    job();
  }
}

ConcurrentEngine::SessionLease::~SessionLease() {
  if (engine_ != nullptr && session_ != nullptr) {
    engine_->Release(PooledSession{std::move(epoch_), std::move(session_)});
  }
}

ConcurrentEngine::SessionLease ConcurrentEngine::Lease(
    std::string_view backend) {
  PooledSession entry = Acquire(backend);
  return SessionLease(this, std::move(entry.epoch), std::move(entry.session));
}

Dist ConcurrentEngine::Distance(NodeId s, NodeId t) {
  return Lease()->Distance(s, t);
}

PathResult ConcurrentEngine::ShortestPath(NodeId s, NodeId t) {
  return Lease()->ShortestPath(s, t);
}

template <typename Body>
void ConcurrentEngine::RunBatch(std::size_t n, std::size_t num_threads,
                                std::string_view backend, const Body& body) {
  if (n == 0) return;
  std::size_t threads = num_threads == 0 ? num_threads_ : num_threads;
  threads = std::max<std::size_t>(1, std::min(threads, n));

  // One leased session per worker for the whole batch; ~4 chunks per worker
  // so an expensive straggler query cannot idle the other threads. All
  // sessions come from the same epoch acquisition round, so a swap landing
  // mid-batch cannot split the batch across index versions.
  std::vector<PooledSession> sessions;
  sessions.reserve(threads);
  sessions.push_back(Acquire(backend));
  const EpochHandle& epoch = sessions.front().epoch;
  for (std::size_t i = 1; i < threads; ++i) {
    PooledSession entry = Acquire(backend);
    if (entry.epoch != epoch) {
      entry = PooledSession{epoch, epoch->NewSession()};
    }
    sessions.push_back(std::move(entry));
  }
  const std::size_t chunk = std::max<std::size_t>(1, n / (threads * 4));
  ParallelChunks(
      n, chunk,
      [&](std::size_t /*chunk_index*/, std::size_t begin, std::size_t end,
          std::size_t tid) { body(*sessions[tid].session, begin, end); },
      threads);
  for (PooledSession& entry : sessions) Release(std::move(entry));
}

std::vector<Dist> ConcurrentEngine::BatchDistance(
    const std::vector<QueryPair>& queries, std::size_t num_threads,
    std::string_view backend) {
  std::vector<Dist> results(queries.size(), kInfDist);
  RunBatch(queries.size(), num_threads, backend,
           [&](QuerySession& session, std::size_t begin, std::size_t end) {
             for (std::size_t i = begin; i < end; ++i) {
               results[i] =
                   session.Distance(queries[i].first, queries[i].second);
             }
           });
  return results;
}

std::vector<PathResult> ConcurrentEngine::BatchShortestPath(
    const std::vector<QueryPair>& queries, std::size_t num_threads,
    std::string_view backend) {
  std::vector<PathResult> results(queries.size());
  RunBatch(queries.size(), num_threads, backend,
           [&](QuerySession& session, std::size_t begin, std::size_t end) {
             for (std::size_t i = begin; i < end; ++i) {
               results[i] =
                   session.ShortestPath(queries[i].first, queries[i].second);
             }
           });
  return results;
}

std::vector<Dist> ConcurrentEngine::DistanceMatrix(
    std::span<const NodeId> sources, std::span<const NodeId> targets,
    std::size_t num_threads, std::string_view backend) const {
  EpochHandle epoch = registry_->Current(backend);
  if (!epoch) {
    throw std::invalid_argument("ConcurrentEngine: unknown backend '" +
                                std::string(backend) + "'");
  }
  return epoch->oracle->DistanceMatrix(
      sources, targets, num_threads == 0 ? num_threads_ : num_threads);
}

ConcurrentEngine::PooledSession ConcurrentEngine::Acquire(
    std::string_view backend) {
  EpochHandle epoch = registry_->Current(backend);
  if (!epoch) {
    throw std::invalid_argument("ConcurrentEngine: unknown backend '" +
                                std::string(backend) + "'");
  }
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (pool_[i].epoch == epoch) {
        PooledSession entry = std::move(pool_[i]);
        pool_[i] = std::move(pool_.back());
        pool_.pop_back();
        return entry;
      }
    }
  }
  std::unique_ptr<QuerySession> session = epoch->NewSession();
  return PooledSession{std::move(epoch), std::move(session)};
}

void ConcurrentEngine::Release(PooledSession entry) {
  if (entry.session == nullptr) return;
  MutexLock lock(mu_);
  // Pool only sessions over the still-current epoch: a stale session
  // returning from a lease is dropped here, releasing its epoch pin — this
  // (plus PurgeStale on swap) is what retires an old index as soon as its
  // last lease returns. The check runs under the pool lock: PurgeStale (the
  // swap listener) also takes it, so either this push lands before the
  // purge (which then drops it) or the swap is already visible to Current()
  // here — a stale entry can never slip into the pool and linger. Current()
  // only takes the registry's reader lock, which no listener holds, so the
  // nesting cannot deadlock.
  if (registry_->Current(entry.epoch->backend) != entry.epoch) return;
  // Cap the pool at twice the fan-out so a one-time burst of leases does not
  // pin its peak count of graph-sized search-scratch sets forever; sessions
  // beyond the cap are simply destroyed.
  if (pool_.size() < num_threads_ * 2) pool_.push_back(std::move(entry));
}

void ConcurrentEngine::PurgeStale(const EpochHandle& fresh) {
  std::vector<PooledSession> dropped;  // destroyed after the lock releases
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < pool_.size();) {
    if (pool_[i].epoch->backend_id == fresh->backend_id &&
        pool_[i].epoch != fresh) {
      dropped.push_back(std::move(pool_[i]));
      pool_[i] = std::move(pool_.back());
      pool_.pop_back();
    } else {
      ++i;
    }
  }
}

}  // namespace ah
