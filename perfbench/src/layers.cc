#include "layers.h"

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/concurrent_engine.h"
#include "api/index_registry.h"
#include "perturb/traffic_feed.h"
#include "server/admission.h"
#include "server/binary_protocol.h"
#include "server/line_client.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server_stack.h"
#include "server/tcp_server.h"
#include "wire.h"

namespace perfbench {

namespace {

using ah::server::Opcode;
using ah::server::Reply;
using ah::server::Request;
using ah::server::RequestKind;

// Replay set sizes: enough samples that every p99 has >= 10 beyond it.
constexpr std::size_t kDists = 3000;
constexpr std::size_t kPaths = 1200;
constexpr std::size_t kBulkEach = 200;
constexpr std::size_t kSessions = 100;
constexpr std::size_t kCacheStream = 20000;
// The traced registry serves both backends on every workload, so each
// backend's kernel is timed on every workload's point pairs.
const std::vector<std::string> kLayerBackends = {"hl", "ah"};

template <typename F>
std::int64_t TimeNs(F&& f) {
  const std::int64_t t0 = NowNs();
  f();
  return NowNs() - t0;
}

// Per-class answer checksum (FNV over distances, path lengths and nodes).
struct Sum {
  std::uint64_t h = kFnvBasis;
  void AddDist(Dist d) { h = FnvMix(h, d); }
  void AddPath(Dist length, const std::vector<NodeId>& nodes) {
    h = FnvMix(h, length);
    for (const NodeId v : nodes) h = FnvMix(h, v);
  }
};

struct Req {
  Cls cls = Cls::kDist;
  std::string backend;  // name; "" never (the layers name it explicitly)
  NodeId s = 0, t = 0;
  std::vector<Pair> pairs;
  std::vector<NodeId> sources, targets;
};

Request ToRequest(const Req& r) {
  Request q;
  q.backend = r.backend;
  q.s = r.s;
  q.t = r.t;
  q.pairs = r.pairs;
  q.sources = r.sources;
  q.targets = r.targets;
  switch (r.cls) {
    case Cls::kDist: q.kind = RequestKind::kDistance; break;
    case Cls::kPath: q.kind = RequestKind::kPath; break;
    case Cls::kBatch: q.kind = RequestKind::kBatch; break;
    case Cls::kMatrix: q.kind = RequestKind::kMatrix; break;
  }
  return q;
}

std::string V1Line(const Req& r) {
  std::string line = "@" + r.backend + " ";
  line += r.cls == Cls::kPath ? "p " : "d ";
  line += std::to_string(r.s) + " " + std::to_string(r.t);
  return line;
}

void FoldAnswer(const Req& r, const Answer& a, Sum* sum) {
  if (r.cls == Cls::kDist) {
    sum->AddDist(a.dist);
  } else if (r.cls == Cls::kPath) {
    sum->AddPath(a.dist, a.nodes);
  } else {
    sum->h = FnvMix(sum->h, a.hash);
  }
}

void FoldReply(const Req& r, const Reply& reply, Sum* sum) {
  if (r.cls == Cls::kDist) {
    sum->AddDist(reply.dist);
  } else if (r.cls == Cls::kPath) {
    sum->AddPath(reply.path.length, reply.path.nodes);
  } else {
    sum->h = FnvMix(sum->h, HashDists(reply.dists.data(), reply.dists.size()));
  }
}

// Per class: recorder and checksum of one layer.
struct LayerResult {
  Recorder rec[kNumCls];
  Sum sum[kNumCls];
};

// Waits for an asynchronous callback to flip `done`.
void Await(const std::atomic<bool>& done) {
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
}

}  // namespace

Order LayerOrder(double kernel, double engine, double stack, double tcp,
                 bool bulk) {
  const auto ordered = [&](double slack) {
    const auto leq = [slack](double lo, double hi) { return lo <= hi * slack; };
    return (bulk || leq(kernel, engine)) && leq(engine, stack) && leq(stack, tcp);
  };
  if (ordered(1.0)) return Order::kStrict;
  return ordered(1.0 + kOrderTolerance) ? Order::kWithinTolerance : Order::kViolated;
}

const char* OrderName(Order order) {
  switch (order) {
    case Order::kStrict:
      return "ordered";
    case Order::kWithinTolerance:
      return "ordered within tolerance";
    case Order::kViolated:
      return "VIOLATED";
  }
  return "?";
}

void RunLayers(const RunOptions& options, Outcome* out) {
  const WorkloadSpec& spec = options.spec;
  MetricSheet& m = out->layer;
  std::printf("[trace] building the traced registry (hl, ah)\n");
  std::fflush(stdout);
  const ah::Graph graph = MakeBenchGraph();
  auto registry = std::make_shared<ah::IndexRegistry>(graph, kLayerBackends);
  const Inputs inputs(spec, graph.NumNodes(), options.seed);

  // --- The replay set: the workload's own streams, with backend names. ---
  std::vector<Req> reqs[kNumCls];
  for (std::uint64_t i = 0;
       reqs[0].size() < kDists || reqs[1].size() < kPaths; ++i) {
    const PointReq p = inputs.Point(kStreamPoint0, i);
    std::vector<Req>& into = reqs[static_cast<int>(p.cls)];
    if (into.size() >= (p.cls == Cls::kDist ? kDists : kPaths)) continue;
    into.push_back(Req{p.cls, spec.backends[p.backend], p.s, p.t, {}, {}, {}});
  }
  for (std::uint64_t j = 0; j < 2 * kBulkEach; ++j) {
    const BulkReq b = inputs.Bulk(kStreamBulk, j);
    reqs[static_cast<int>(b.cls)].push_back(
        Req{b.cls, spec.backends[b.backend], 0, 0, b.pairs, b.sources, b.targets});
  }
  std::printf("[trace] replay set: %zu d, %zu p, %zu b, %zu m (stream hash %016llx)\n",
              reqs[0].size(), reqs[1].size(), reqs[2].size(), reqs[3].size(),
              static_cast<unsigned long long>(
                  inputs.PointStreamHash(kStreamPoint0, kDists)));

  ah::EpochHandle epochs[2] = {registry->Current("hl"), registry->Current("ah")};
  const auto epoch_of = [&](const std::string& name) -> const ah::IndexEpoch& {
    return name == "hl" ? *epochs[0] : *epochs[1];
  };

  // --- kernel and engine -------------------------------------------------
  // Point requests time the kernel (QuerySession) and the engine (Lease +
  // query) back to back, alternating which goes first, so both layers see
  // the same conditions and their medians compare.
  ah::ConcurrentEngine eng(registry, kEngineThreads);
  LayerResult kernel, engine;
  {
    std::unique_ptr<ah::QuerySession> sessions[2] = {epochs[0]->NewSession(),
                                                     epochs[1]->NewSession()};
    // One untimed pass first: page faults on the fresh indexes would
    // otherwise land on whichever layer touches them first.
    for (int b = 0; b < 2; ++b) {
      for (const Req& r : reqs[0]) sessions[b]->Distance(r.s, r.t);
      for (const Req& r : reqs[1]) sessions[b]->ShortestPath(r.s, r.t);
    }
    Recorder kernel_by[2][2];  // [backend][d/p] over every point pair
    Recorder engine_by[2][2];
    for (int c = 0; c < 2; ++c) {
      // Every pair on both backends; the class result takes each request's
      // own backend, folded in stream order like the outer layers.
      std::vector<std::int64_t> kns[2], ens[2];
      std::vector<ah::PathResult> kans[2], eans[2];
      for (int b = 0; b < 2; ++b) {
        for (std::size_t i = 0; i < reqs[c].size(); ++i) {
          const Req& r = reqs[c][i];
          ah::PathResult k, e;
          const auto on_kernel = [&] {
            if (c == 0) {
              k.length = sessions[b]->Distance(r.s, r.t);
            } else {
              k = sessions[b]->ShortestPath(r.s, r.t);
            }
          };
          const auto on_engine = [&] {
            auto lease = eng.Lease(kLayerBackends[b]);
            if (c == 0) {
              e.length = lease->Distance(r.s, r.t);
            } else {
              e = lease->ShortestPath(r.s, r.t);
            }
          };
          std::int64_t kt = 0, et = 0;
          if (i % 2 == 0) {
            kt = TimeNs(on_kernel);
            et = TimeNs(on_engine);
          } else {
            et = TimeNs(on_engine);
            kt = TimeNs(on_kernel);
          }
          kernel_by[b][c].Add(kt);
          engine_by[b][c].Add(et);
          kns[b].push_back(kt);
          ens[b].push_back(et);
          kans[b].push_back(std::move(k));
          eans[b].push_back(std::move(e));
        }
      }
      for (std::size_t i = 0; i < reqs[c].size(); ++i) {
        const int own = reqs[c][i].backend == kLayerBackends[0] ? 0 : 1;
        kernel.rec[c].Add(kns[own][i]);
        engine.rec[c].Add(ens[own][i]);
        if (c == 0) {
          kernel.sum[c].AddDist(kans[own][i].length);
          engine.sum[c].AddDist(eans[own][i].length);
        } else {
          kernel.sum[c].AddPath(kans[own][i].length, kans[own][i].nodes);
          engine.sum[c].AddPath(eans[own][i].length, eans[own][i].nodes);
        }
      }
    }
    for (const Req& r : reqs[2]) {
      std::vector<Dist> ds(r.pairs.size());
      ah::QuerySession& s = *sessions[r.backend == "hl" ? 0 : 1];
      kernel.rec[2].Add(TimeNs([&] {
        for (std::size_t k = 0; k < r.pairs.size(); ++k) {
          ds[k] = s.Distance(r.pairs[k].first, r.pairs[k].second);
        }
      }));
      kernel.sum[2].h = FnvMix(kernel.sum[2].h, HashDists(ds.data(), ds.size()));
    }
    for (const Req& r : reqs[3]) {
      std::vector<Dist> ds;
      kernel.rec[3].Add(TimeNs([&] {
        ds = epoch_of(r.backend).oracle->DistanceMatrix(r.sources, r.targets, 1);
      }));
      kernel.sum[3].h = FnvMix(kernel.sum[3].h, HashDists(ds.data(), ds.size()));
    }
    for (int b : {1, 0}) {
      const std::string p = "kernel." + kLayerBackends[b] + ".";
      m.AddQuantile(p + "dist_ns_p50", "ns", kernel_by[b][0], 0.5, 1);
      m.AddQuantile(p + "dist_ns_p99", "ns", kernel_by[b][0], 0.99, 1);
      m.AddQuantile(p + "path_ns_p50", "ns", kernel_by[b][1], 0.5, 1);
      m.AddQuantile(p + "path_ns_p99", "ns", kernel_by[b][1], 0.99, 1);
    }
    m.AddQuantile("kernel.hl.batch_us_p50", "us", kernel.rec[2], 0.5, 1e-3);
    m.AddQuantile("kernel.hl.matrix_us_p50", "us", kernel.rec[3], 0.5, 1e-3);
    m.AddQuantile("engine.ah.dist_ns_p50", "ns", engine_by[1][0], 0.5, 1);
  }

  // --- session: NewSession --------------------------------------------------
  for (int b = 0; b < 2; ++b) {
    Recorder rec;
    for (std::size_t i = 0; i < kSessions; ++i) {
      std::unique_ptr<ah::QuerySession> s;
      rec.Add(TimeNs([&] { s = epochs[b]->NewSession(); }));
    }
    m.AddQuantile("session." + kLayerBackends[b] + ".new_us", "us", rec, 0.5, 1e-3);
  }

  // --- registry: Current, build and index sizes ----------------------------
  {
    Recorder rec;
    for (std::size_t i = 0; i < kDists; ++i) {
      ah::EpochHandle h;
      rec.Add(TimeNs([&] { h = registry->Current(kLayerBackends[i % 2]); }));
    }
    m.AddQuantile("registry.current_ns_p50", "ns", rec, 0.5, 1);
    for (int b = 0; b < 2; ++b) {
      const ah::OracleBuildStats& st = epochs[b]->oracle->BuildStats();
      m.Add("registry.build_s." + kLayerBackends[b], "s", st.seconds);
      m.Add("registry.index_mb." + kLayerBackends[b], "MiB",
            static_cast<double>(st.index_bytes) / (1024.0 * 1024.0));
    }
  }

  // --- engine: Lease and SubmitAsync --------------------------------------
  {
    Recorder lease;
    for (std::size_t i = 0; i < kDists; ++i) {
      lease.Add(TimeNs([&] { auto l = eng.Lease(); }));
    }
    m.AddQuantile("engine.lease_ns_p50", "ns", lease, 0.5, 1);
    Recorder wait;
    for (const Req& r : reqs[0]) {
      std::atomic<bool> done{false};
      std::int64_t started = 0;
      const std::int64_t submitted = NowNs();
      eng.SubmitAsync([&] {
        started = NowNs();
        eng.Lease(r.backend)->Distance(r.s, r.t);
        done.store(true, std::memory_order_release);
      });
      Await(done);
      wait.Add(started - submitted);
    }
    m.AddQuantile("engine.async_wait_us_p50", "us", wait, 0.5, 1e-3);
    m.AddQuantile("engine.async_wait_us_p99", "us", wait, 0.99, 1e-3);
  }

  // --- cache: Lookup / Insert / LookupMany on a production-sized cache ----
  {
    const ah::server::ServerConfig config = BenchServerConfig();
    ah::server::ResultCache cache(config.cache_capacity, config.cache_shards,
                                  config.cache_ttl);
    Recorder hit, miss, insert, many;
    std::vector<ah::server::CacheKey> keys;
    for (std::uint64_t i = 0; i < kCacheStream; ++i) {
      const PointReq p = inputs.Point(kStreamPoint0, i);
      keys.push_back(ah::server::CacheKey{
          p.s, p.t,
          p.cls == Cls::kPath ? ah::server::CachedKind::kPath
                              : ah::server::CachedKind::kDistance,
          p.backend});
    }
    std::size_t hits = 0;
    // Pass 1 replays the stream cold (misses insert), pass 2 re-requests it.
    for (int pass = 0; pass < 2; ++pass) {
      for (const ah::server::CacheKey& key : keys) {
        ah::server::CachedResult value;
        bool found = false;
        const std::int64_t ns =
            TimeNs([&] { found = cache.Lookup(key, 1, &value); });
        (found ? hit : miss).Add(ns);
        if (pass == 0 && found) ++hits;
        if (!found) {
          insert.Add(TimeNs([&] {
            cache.Insert(key, 1, ah::server::CachedResult{key.s + key.t, {}});
          }));
        }
      }
    }
    for (const Req& r : reqs[2]) {
      std::vector<ah::server::CacheKey> bkeys;
      for (const Pair& p : r.pairs) {
        bkeys.push_back({p.first, p.second, ah::server::CachedKind::kDistance, 0});
      }
      std::vector<ah::server::CachedResult> got(bkeys.size());
      std::vector<char> found(bkeys.size(), 0);
      many.Add(TimeNs([&] { cache.LookupMany(bkeys, 1, &got, &found); }));
    }
    m.Add("cache.replay_hit_rate", "frac",
          static_cast<double>(hits) / static_cast<double>(keys.size()));
    m.AddQuantile("cache.lookup_hit_ns_p50", "ns", hit, 0.5, 1);
    m.AddQuantile("cache.lookup_miss_ns_p50", "ns", miss, 0.5, 1);
    m.AddQuantile("cache.insert_ns_p50", "ns", insert, 0.5, 1);
    m.AddQuantile("cache.lookupmany_us_p50", "us", many, 0.5, 1e-3);
  }

  // --- admission: TryAdmit + Release --------------------------------------
  {
    const ah::server::ServerConfig config = BenchServerConfig();
    ah::server::AdmissionController admission(ah::server::AdmissionConfig{
        config.admission_capacity, config.request_timeout,
        config.admission_per_client});
    Recorder rec;
    for (std::size_t i = 0; i < kDists; ++i) {
      rec.Add(TimeNs([&] {
        if (admission.TryAdmit(1)) admission.Release(1);
      }));
    }
    m.AddQuantile("admission.admit_release_ns_p50", "ns", rec, 0.5, 1);
  }

  // --- codec: v1 text and v2 frames ----------------------------------------
  {
    const ah::server::ParseLimits limits{graph.NumNodes(), 4096, 512, 1 << 20};
    Recorder parse, format, decode, encode, batch_decode, matrix_encode;
    double v1_req = 0, v1_reply = 0, v2_req = 0, v2_reply = 0;
    std::unique_ptr<ah::QuerySession> session = epochs[0]->NewSession();
    for (const Req& r : reqs[0]) {
      const std::string line = V1Line(r);
      ah::server::ParseResult parsed;
      parse.Add(TimeNs([&] { parsed = ah::server::ParseRequest(line, limits); }));
      Reply reply;
      reply.kind = RequestKind::kDistance;
      reply.dist = session->Distance(r.s, r.t);
      std::string text;
      format.Add(TimeNs([&] { text = ah::server::FormatReply(reply); }));
      const std::string frame = ah::server::EncodeRequestFrame(
          Opcode::kDistance, 7, r.backend, ah::server::EncodeRequestBody(ToRequest(r)));
      ah::server::FrameHeader header;
      std::string_view payload;
      ah::server::TryReadFrame(frame, &header, &payload);
      decode.Add(TimeNs([&] {
        parsed = ah::server::DecodeRequest(header, payload, limits);
      }));
      std::string encoded;
      encode.Add(TimeNs([&] {
        encoded = ah::server::EncodeReplyFrame(reply, Opcode::kDistance, 7);
      }));
      v1_req += static_cast<double>(line.size() + 1);
      v1_reply += static_cast<double>(text.size() + 1);
      v2_req += static_cast<double>(frame.size());
      v2_reply += static_cast<double>(encoded.size());
    }
    for (const Req& r : reqs[2]) {
      const std::string frame = ah::server::EncodeRequestFrame(
          Opcode::kBatch, 7, r.backend, ah::server::EncodeRequestBody(ToRequest(r)));
      ah::server::FrameHeader header;
      std::string_view payload;
      ah::server::TryReadFrame(frame, &header, &payload);
      batch_decode.Add(TimeNs([&] {
        (void)ah::server::DecodeRequest(header, payload, limits);
      }));
    }
    for (const Req& r : reqs[3]) {
      Reply reply;
      reply.kind = RequestKind::kMatrix;
      reply.num_sources = r.sources.size();
      reply.num_targets = r.targets.size();
      reply.dists = epochs[0]->oracle->DistanceMatrix(r.sources, r.targets, 1);
      matrix_encode.Add(TimeNs([&] {
        (void)ah::server::EncodeReplyFrame(reply, Opcode::kMatrix, 7);
      }));
    }
    const double n = static_cast<double>(reqs[0].size());
    m.AddQuantile("codec.v1.parse_ns_p50", "ns", parse, 0.5, 1);
    m.AddQuantile("codec.v1.format_ns_p50", "ns", format, 0.5, 1);
    m.AddQuantile("codec.v2.decode_ns_p50", "ns", decode, 0.5, 1);
    m.AddQuantile("codec.v2.encode_ns_p50", "ns", encode, 0.5, 1);
    m.AddQuantile("codec.v2.batch_decode_us_p50", "us", batch_decode, 0.5, 1e-3);
    m.AddQuantile("codec.v2.matrix_encode_us_p50", "us", matrix_encode, 0.5, 1e-3);
    m.Add("codec.v1.req_bytes", "B", v1_req / n);
    m.Add("codec.v1.reply_bytes", "B", v1_reply / n);
    m.Add("codec.v2.req_bytes", "B", v2_req / n);
    m.Add("codec.v2.reply_bytes", "B", v2_reply / n);
  }

  // --- stack (in-process, cache off) and tcp (loopback) --------------------
  // The result cache is disabled here so every replayed request runs the
  // whole path down to the kernel and the layers nest; the cache layer is
  // timed on its own above.
  ah::server::ServerConfig config = BenchServerConfig();
  config.cache_capacity = 0;
  LayerResult stack_v2, tcp_v2;
  Recorder stack_v1, tcp_v1;
  Sum stack_v1_sum, tcp_v1_sum;
  double untraced_mean_us = 0;
  double bytes_in = 0, bytes_out = 0;
  {
    ah::server::ServerStack stack(registry, config);
    ah::server::TcpServer tcp(stack);
    std::string error;
    if (!tcp.Start(&error)) {
      out->invalid = "traced tcp server failed: " + error;
      return;
    }
    ah::server::LineClient v1;
    ah::server::BinaryClient v2;
    std::string line;
    if (!v1.Connect(tcp.Port()) || !v1.ReadLine(&line) || !v2.Connect(tcp.Port())) {
      out->invalid = "traced clients failed to connect";
      return;
    }
    // Each request runs through every layer that applies to it back to
    // back, rotating which goes first, so the layers' medians compare.
    const auto rotate = [](std::size_t i, std::vector<std::function<void()>> layers) {
      for (std::size_t k = 0; k < layers.size(); ++k) layers[(i + k) % layers.size()]();
    };
    for (std::size_t i = 0; i < reqs[0].size(); ++i) {
      const std::string request = V1Line(reqs[0][i]);
      const auto on_stack = [&] {
        std::atomic<bool> done{false};
        std::string reply;
        stack_v1.Add(TimeNs([&] {
          stack.Submit(request, 1, [&](std::string text, bool) {
            reply = std::move(text);
            done.store(true, std::memory_order_release);
          });
          Await(done);
        }));
        Answer a;
        DecodeV1(Cls::kDist, reply, &a);
        stack_v1_sum.AddDist(a.dist);
      };
      const auto on_tcp = [&] {
        tcp_v1.Add(TimeNs([&] {
          v1.SendLine(request);
          v1.ReadLine(&line);
        }));
        Answer a;
        DecodeV1(Cls::kDist, line, &a);
        tcp_v1_sum.AddDist(a.dist);
      };
      rotate(i, {on_stack, on_tcp});
    }
    Recorder one_thread;
    for (std::size_t c = 0; c < kNumCls; ++c) {
      const std::uint64_t in0 = stack.wire().bytes_in.load();
      const std::uint64_t out0 = stack.wire().bytes_out.load();
      for (std::size_t i = 0; i < reqs[c].size(); ++i) {
        const Req& r = reqs[c][i];
        const Request q = ToRequest(r);
        const auto on_stack = [&] {
          ah::server::ParseResult parsed;
          parsed.ok = true;
          parsed.request = q;
          std::atomic<bool> done{false};
          Reply reply;
          stack_v2.rec[c].Add(TimeNs([&] {
            stack.SubmitDecoded(std::move(parsed), 2, [&](Reply rep) {
              reply = std::move(rep);
              done.store(true, std::memory_order_release);
            });
            Await(done);
          }));
          FoldReply(r, reply, &stack_v2.sum[c]);
        };
        const std::string body = ah::server::EncodeRequestBody(q);
        const auto on_tcp = [&] {
          ah::server::BinaryClient::Frame frame;
          tcp_v2.rec[c].Add(TimeNs([&] {
            const std::uint64_t id =
                v2.SendRequest(ah::server::OpcodeForKind(q.kind), body, r.backend);
            v2.ReadReplyFor(id, &frame);
          }));
          Answer a;
          DecodeV2(r.cls, frame.header, frame.payload, &a);
          FoldAnswer(r, a, &tcp_v2.sum[c]);
        };
        if (c < 2) {
          rotate(i, {on_stack, on_tcp});
          continue;
        }
        // Bulk: the engine's fan-out call, timed on an engine worker (the
        // thread the stack runs it on) beside the stack and tcp layers that
        // run the same call underneath.
        const auto on_worker = [&](std::size_t threads, Recorder* rec) {
          std::atomic<bool> done{false};
          std::vector<Dist> ds;
          eng.SubmitAsync([&] {
            rec->Add(TimeNs([&] {
              ds = c == 2 ? eng.BatchDistance(r.pairs, threads, r.backend)
                          : eng.DistanceMatrix(r.sources, r.targets, threads, r.backend);
            }));
            done.store(true, std::memory_order_release);
          });
          Await(done);
          return ds;
        };
        const auto on_engine = [&] {
          const std::vector<Dist> ds = on_worker(0, &engine.rec[c]);
          engine.sum[c].h = FnvMix(engine.sum[c].h, HashDists(ds.data(), ds.size()));
        };
        rotate(i, {on_engine, on_stack, on_tcp});
        if (c == 2) on_worker(1, &one_thread);
      }
      if (c == 0) {
        const double n = static_cast<double>(reqs[0].size());
        bytes_in = static_cast<double>(stack.wire().bytes_in.load() - in0) / n;
        bytes_out = static_cast<double>(stack.wire().bytes_out.load() - out0) / n;
      }
    }
    m.AddQuantile("engine.batch_us_p50", "us", engine.rec[2], 0.5, 1e-3);
    m.AddQuantile("engine.matrix_us_p50", "us", engine.rec[3], 0.5, 1e-3);
    const double two = static_cast<double>(engine.rec[2].Quantile(0.5));
    m.Add("engine.fanout_speedup", "x",
          two > 0 ? static_cast<double>(one_thread.Quantile(0.5)) / two : 0);
    // Tracing overhead: the same v2 `d` replay with one clock read per
    // replay instead of two per request.
    const std::int64_t t0 = NowNs();
    for (const Req& r : reqs[0]) {
      ah::server::BinaryClient::Frame frame;
      const std::uint64_t id = v2.SendRequest(
          Opcode::kDistance, ah::server::EncodeRequestBody(ToRequest(r)), r.backend);
      v2.ReadReplyFor(id, &frame);
    }
    untraced_mean_us = static_cast<double>(NowNs() - t0) * 1e-3 /
                       static_cast<double>(reqs[0].size());
    tcp.Stop();
  }
  m.AddQuantile("stack.v1.dist_us_p50", "us", stack_v1, 0.5, 1e-3);
  m.AddQuantile("stack.v2.dist_us_p50", "us", stack_v2.rec[0], 0.5, 1e-3);
  m.AddQuantile("stack.v2.dist_us_p99", "us", stack_v2.rec[0], 0.99, 1e-3);
  m.AddQuantile("stack.v2.path_us_p50", "us", stack_v2.rec[1], 0.5, 1e-3);
  m.AddQuantile("stack.v2.batch_us_p50", "us", stack_v2.rec[2], 0.5, 1e-3);
  m.AddQuantile("stack.v2.matrix_us_p50", "us", stack_v2.rec[3], 0.5, 1e-3);
  const auto frac = [](Recorder& upper, Recorder& lower) {
    const double u = static_cast<double>(upper.Quantile(0.5));
    return u > 0 ? (u - static_cast<double>(lower.Quantile(0.5))) / u : 0;
  };
  m.Add("stack.overhead_frac.dist", "frac", frac(stack_v2.rec[0], engine.rec[0]));
  m.Add("stack.overhead_frac.batch", "frac", frac(stack_v2.rec[2], engine.rec[2]));
  m.Add("stack.overhead_frac.matrix", "frac", frac(stack_v2.rec[3], engine.rec[3]));
  m.AddQuantile("tcp.v1.dist_rtt_us_p50", "us", tcp_v1, 0.5, 1e-3);
  m.AddQuantile("tcp.v2.dist_rtt_us_p50", "us", tcp_v2.rec[0], 0.5, 1e-3);
  m.AddQuantile("tcp.v2.dist_rtt_us_p99", "us", tcp_v2.rec[0], 0.99, 1e-3);
  m.AddQuantile("tcp.v2.path_rtt_us_p50", "us", tcp_v2.rec[1], 0.5, 1e-3);
  m.AddQuantile("tcp.v2.batch_rtt_us_p50", "us", tcp_v2.rec[2], 0.5, 1e-3);
  m.AddQuantile("tcp.v2.matrix_rtt_us_p50", "us", tcp_v2.rec[3], 0.5, 1e-3);
  m.Add("tcp.overhead_frac.dist", "frac", frac(tcp_v2.rec[0], stack_v2.rec[0]));
  const double v2_p50 = static_cast<double>(tcp_v2.rec[0].Quantile(0.5));
  m.Add("tcp.v2_over_v1", "x",
        v2_p50 > 0 ? static_cast<double>(tcp_v1.Quantile(0.5)) / v2_p50 : 0);
  m.Add("tcp.bytes_in_per_req", "B", bytes_in);
  m.Add("tcp.bytes_out_per_req", "B", bytes_out);

  // --- registry: one frozen-order reload -----------------------------------
  {
    ah::TrafficFeedParams params;
    params.seed = inputs.DeltaSeed();
    ah::TrafficFeed feed(graph, params);
    registry->QueueWeightUpdates(feed.NextBatch());
    registry->RequestReload();
    registry->WaitForRebuild();
    const ah::IndexRegistry::RegistryStats st = registry->GetStats();
    std::uint64_t incremental = 0;
    std::uint64_t total = 0;
    std::uint64_t fallbacks = 0;
    for (std::size_t b = 0; b < kLayerBackends.size(); ++b) {
      const auto& rb = st.backend_rebuilds[b];
      m.Add("registry.rebuild_s." + kLayerBackends[b], "s", rb.last_rebuild_seconds);
      incremental += rb.incremental;
      total += rb.incremental + rb.full;
      fallbacks += rb.fallbacks;
    }
    m.Add("registry.incremental_frac", "frac",
          total == 0 ? 0 : static_cast<double>(incremental) / static_cast<double>(total));
    m.Add("registry.fallbacks", "count", static_cast<double>(fallbacks));
  }

  // --- Checksums, ordering and the traced-vs-untraced comparison ----------
  std::printf("== traced layers (p50 per request class) ==\n");
  static constexpr const char* kE2e[] = {"dist_p50_us", "path_p50_us",
                                         "batch_p50_us", "matrix_p50_us"};
  for (std::size_t c = 0; c < kNumCls; ++c) {
    const double k = static_cast<double>(kernel.rec[c].Quantile(0.5)) * 1e-3;
    const double e = static_cast<double>(engine.rec[c].Quantile(0.5)) * 1e-3;
    const double s = static_cast<double>(stack_v2.rec[c].Quantile(0.5)) * 1e-3;
    const double t = static_cast<double>(tcp_v2.rec[c].Quantile(0.5)) * 1e-3;
    const bool same = kernel.sum[c].h == engine.sum[c].h &&
                      engine.sum[c].h == stack_v2.sum[c].h &&
                      stack_v2.sum[c].h == tcp_v2.sum[c].h &&
                      (c != 0 || (stack_v1_sum.h == kernel.sum[c].h &&
                                  tcp_v1_sum.h == kernel.sum[c].h));
    const bool bulk = c >= 2;
    const Order order = LayerOrder(k, e, s, t, bulk);
    const Metric* e2e = out->e2e.Find(kE2e[c]);
    std::printf("%-6s kernel %9.2f  engine %9.2f  stack %9.2f  tcp %9.2f us  "
                "| e2e untraced %9.2f us | checksum %016llx %s | %s %s\n",
                ClsName(static_cast<Cls>(c)), k, e, s, t,
                e2e != nullptr ? e2e->value : 0.0,
                static_cast<unsigned long long>(kernel.sum[c].h),
                same ? "identical" : "MISMATCH",
                bulk ? "engine<=stack<=tcp" : "kernel<=engine<=stack<=tcp",
                OrderName(order));
    if (!same) {
      std::printf("!! %s checksums differ across layers\n", ClsName(static_cast<Cls>(c)));
      ++out->failed;
      ++out->wrong;
    }
    if (order == Order::kViolated) {
      out->invalid = std::string(ClsName(static_cast<Cls>(c))) +
                     " layer medians out of order beyond the tolerance";
    }
  }
  const double traced_mean_us = tcp_v2.rec[0].Mean() * 1e-3;
  std::printf("tracing overhead: tcp v2 dist mean %.2f us traced, %.2f us untraced "
              "(%+.1f%%)\n",
              traced_mean_us, untraced_mean_us,
              untraced_mean_us > 0
                  ? 100.0 * (traced_mean_us - untraced_mean_us) / untraced_mean_us
                  : 0.0);
}

}  // namespace perfbench
