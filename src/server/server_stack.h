// The layered serving stack — the piece that turns the query library into a
// servable system:
//
//   front-end (TCP / stdin / tests)
//     -> protocol.h        parse + strict validation, structured errors
//     -> result_cache.h    sharded LRU over (src, dst, kind, backend),
//                          generation-tagged entries + optional TTL
//     -> admission.h       bounded in-flight budget + per-request deadlines
//     -> ConcurrentEngine  epoch-pinned session leases over IndexRegistry
//
// One ServerStack serves any number of front-end threads concurrently, over
// one or more backends published by an epoch-versioned IndexRegistry
// (api/index_registry.h). Queries name a backend with the "@<backend>"
// prefix or fall through to the server default (the `use` admin verb); the
// `upd` and `reload` admin verbs drive live weight updates and zero-
// downtime hot swaps — in-flight requests finish on the epoch they leased,
// new requests pick up the fresh epoch, and cache entries of the swapped
// backend retire by generation tag without a global flush.
//
// The primary entry point is the callback-style Submit(): parse errors,
// cache hits, load sheds, and admin verbs are answered synchronously on the
// calling thread (they never cost an index query), everything else is
// executed on the engine's async workers and answered through the callback.
// HandleLine() is the blocking convenience the stdin REPL and simple tests
// use.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/concurrent_engine.h"
#include "api/distance_oracle.h"
#include "api/index_registry.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/request_stats.h"
#include "server/result_cache.h"
#include "util/types.h"

namespace ah::server {

struct ServerConfig {
  /// Result-cache entry budget (0 disables caching) and shard count.
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 16;
  /// Per-entry time-to-live (0 = entries never expire) — the freshness
  /// backstop between weight updates and the reload that applies them.
  std::chrono::milliseconds cache_ttl{0};
  /// Admission: max in-flight requests and per-request deadline (0 = none).
  std::size_t admission_capacity = 256;
  std::chrono::milliseconds request_timeout{1000};
  /// Max in-flight requests a single client (TCP connection) may hold
  /// (0 = no per-client cap). Keeps one greedy pipelining client from
  /// consuming the whole admission budget and starving everyone else;
  /// excess requests from that client are shed with ERR overload while
  /// other clients keep being admitted.
  std::size_t admission_per_client = 64;
  /// Max pairs accepted in one batch request.
  std::size_t max_batch = 4096;
  /// Max locations per matrix side (`m` requests); 0 disables the verb.
  /// Over-cap requests are answered ERR too-large.
  std::size_t max_matrix_locations = 512;
  /// Matrices with more cells than this bypass the result cache entirely —
  /// no per-cell probe, no inserts. Beyond a few thousand cells the
  /// bucketized matrix engine answers faster than the N^2 cache lookups
  /// would cost, and inserting one scan's N^2 entries would evict
  /// genuinely hot point entries. 0 keeps every matrix off the cache.
  std::size_t matrix_cache_max_cells = 1024;
  /// Max delta records accepted from one `updf` bulk file; over-cap files
  /// are answered ERR too-large. 0 disables the verb.
  std::size_t max_bulk_deltas = 1 << 20;
  /// Engine fan-out (0 = WorkerThreads() default).
  std::size_t num_threads = 0;
  /// Post-swap cache warm-up: before each rebuilt epoch is published, the
  /// top-K hottest cache entries of that backend (by per-entry hit count)
  /// are recomputed on the fresh epoch and re-inserted under its
  /// generation, so the swap lands with its hottest keys already warm.
  /// 0 (the default) disables warm-up — swapped-backend entries then retire
  /// lazily, invalidated on first touch. Runs on the registry's build
  /// worker thread — swap latency grows by K point queries, typically
  /// microseconds.
  std::size_t warmup_top_k = 0;
};

/// Wire-level counters a front-end maintains alongside the stack's own
/// request accounting; surfaced in the `stats` reply.
struct WireStats {
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> v1_requests{0};
  std::atomic<std::uint64_t> v2_requests{0};
};

class ServerStack {
 public:
  /// Reply text plus whether the front-end should close the session (quit).
  using ReplyCallback = std::function<void(std::string reply, bool close)>;

  /// Structured-reply callback — the v2 binary front-end's entry shape
  /// (the frame encoder renders the Reply; reply.close mirrors quit).
  using StructuredCallback = std::function<void(Reply reply)>;

  /// Builds the stack over a registry (shared so operators can also drive
  /// the registry directly, e.g. WaitForRebuild in a REPL). Throws
  /// std::invalid_argument on a null registry.
  explicit ServerStack(std::shared_ptr<IndexRegistry> registry,
                       const ServerConfig& config = {});

  /// Convenience: wraps one externally built oracle in a static
  /// single-backend registry (queries work; `upd`/`reload` answer errors).
  /// The oracle's graph must outlive the stack.
  explicit ServerStack(std::unique_ptr<DistanceOracle> oracle,
                       const ServerConfig& config = {});

  /// Drains in-flight requests before the engine is torn down.
  ~ServerStack();

  /// Handles one protocol line. `done` is invoked exactly once — inline for
  /// parse errors, cache hits, sheds, and admin requests; from an engine
  /// worker thread otherwise. `done` must not block for long and must stay
  /// callable until invoked. Thread-safe.
  void Submit(std::string_view line, ReplyCallback done);

  /// Same, attributing the request to a client id (a TCP connection id) so
  /// admission can enforce the per-client in-flight cap. Unattributed
  /// Submit() calls only count against the global budget.
  void Submit(std::string_view line, std::uint64_t client_id,
              ReplyCallback done);

  /// The v2 binary front-end's entry: an already-decoded request (from
  /// binary_protocol.h's DecodeRequest — pass a failed ParseResult through
  /// too, so decode errors are counted and answered like parse errors).
  /// Same semantics, admission, cache, and stats path as Submit(); only the
  /// parse/format shell differs. `done` is invoked exactly once, inline or
  /// from an engine worker. Thread-safe.
  void SubmitDecoded(ParseResult parsed, std::uint64_t client_id,
                     StructuredCallback done);

  /// The limits a front-end must decode v2 frames under (same values the
  /// text parser enforces).
  ParseLimits Limits() const {
    return ParseLimits{registry_->NumNodes(), config_.max_batch,
                       config_.max_matrix_locations, config_.max_bulk_deltas};
  }

  /// Blocking convenience: Submit() + wait. Sets *close for a quit request
  /// when `close` is non-null. Thread-safe (callers on their own threads).
  std::string HandleLine(std::string_view line, bool* close = nullptr);

  /// Blocks until every admitted request has been answered.
  void WaitIdle();

  /// The banner a front-end sends when a session opens.
  std::string Greeting() const;

  /// POI set served by k-nearest requests. Set before serving traffic; not
  /// synchronized against in-flight k-nearest execution.
  void SetPois(std::vector<NodeId> pois);
  const std::vector<NodeId>& Pois() const { return pois_; }

  /// One-line key=value stats snapshot (the `stats` reply body).
  std::string StatsLine() const;

  /// Node/arc counts of the served network (invariant across epochs).
  std::size_t NumNodes() const { return registry_->NumNodes(); }
  std::size_t NumArcs() const { return registry_->NumArcs(); }

  IndexRegistry& registry() { return *registry_; }
  ConcurrentEngine& engine() { return engine_; }
  ResultCache& cache() { return cache_; }
  AdmissionController& admission() { return admission_; }
  RequestStats& stats() { return stats_; }
  /// Byte/request counters shared with front-ends (TcpServer adds the
  /// bytes; the stack adds per-protocol request counts).
  WireStats& wire() { return wire_; }
  const ServerConfig& config() const { return config_; }

 private:
  /// The shared text-path Submit() body; `client` attributes admission.
  void SubmitInternal(std::string_view line,
                      std::optional<std::uint64_t> client, ReplyCallback done);

  /// The protocol-independent brain both Submit paths share: inline
  /// answers, backend resolution, cache fast path, admission, async
  /// execution. Exactly one `done(Reply)` call.
  void SubmitParsed(ParseResult parsed, std::optional<std::uint64_t> client,
                    StructuredCallback done);

  /// Answers every verb that is not a query (its row says so) inline.
  /// Never throws.
  Reply ExecuteAdmin(const Request& request);

  /// Executes an admitted query request on an epoch-pinned session lease
  /// and updates cache + stats. Never throws.
  Reply Execute(const Request& request, ConcurrentEngine::SessionLease& lease);

  Reply ExecuteDistance(NodeId s, NodeId t,
                        ConcurrentEngine::SessionLease& lease);
  Reply ExecutePath(NodeId s, NodeId t, ConcurrentEngine::SessionLease& lease);
  Reply ExecuteKNearest(NodeId s, std::uint32_t k,
                        ConcurrentEngine::SessionLease& lease);
  Reply ExecuteBatch(const std::vector<std::pair<NodeId, NodeId>>& pairs,
                     ConcurrentEngine::SessionLease& lease);
  Reply ExecuteMatrix(const std::vector<NodeId>& sources,
                      const std::vector<NodeId>& targets,
                      ConcurrentEngine::SessionLease& lease);

  /// The registry warm-up hook body: recompute the fresh epoch's backend's
  /// top-K hottest cache entries on the not-yet-published epoch and insert
  /// them under its generation, flagged warmed. Runs on the build worker.
  void WarmCache(const IndexEpoch& fresh);

  /// Cache-through distances for a pair list: hits from the cache (keyed by
  /// the lease's backend + generation), misses computed (on the lease, or
  /// fanned across the engine's batch threads when there are many) and
  /// inserted under the lease's generation.
  std::vector<Dist> CachedDistances(
      const std::vector<std::pair<NodeId, NodeId>>& pairs,
      ConcurrentEngine::SessionLease& lease);

  ServerConfig config_;
  std::shared_ptr<IndexRegistry> registry_;
  ConcurrentEngine engine_;
  ResultCache cache_;
  AdmissionController admission_;
  RequestStats stats_;
  WireStats wire_;
  std::vector<NodeId> pois_;
};

}  // namespace ah::server
