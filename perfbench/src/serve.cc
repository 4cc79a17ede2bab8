#include "serve.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdio>
#include <fstream>
#include <thread>

#include "api/index_registry.h"
#include "gen/catalog.h"
#include "loadgen.h"
#include "perturb/traffic_feed.h"
#include "routing/dijkstra.h"
#include "server/line_client.h"
#include "server/server_stack.h"
#include "server/tcp_server.h"
#include "util/parallel.h"
#include "verify.h"

namespace perfbench {

using ah::server::Opcode;

namespace {

constexpr std::int64_t kSec = 1000000000;
constexpr std::size_t kWarmWindow = 32;
constexpr std::size_t kSatWindow = 32;
// Share of --seconds spent in the open-loop phase; the rest saturates. The
// gated latencies come from the open loop, and the host's speed drifts
// within a run, so most of the run goes to it.
constexpr double kOpenShare = 0.85;
// Each timed phase is cut into equal windows, each with its host steal
// share (serve.h: kQuietSteal, kMaxSteal).
constexpr std::size_t kOpenWindows = 7;
constexpr std::size_t kSatWindows = 5;
// Metrics come from the quiet windows, or from the kMinMeasured quietest
// ones when fewer are quiet. An attempt with fewer quiet open-loop windows
// is repeated while the run's time budget allows; the last attempt is
// invalid only if its measured windows lost more than kMaxSteal.
constexpr std::size_t kMinMeasured = 3;
// A new timed attempt starts only if it would end this long after the run
// began. It leaves time for verification within the 180 s a run may take,
// and bounds how long a run on a noisy host takes.
constexpr double kRunBudgetS = 90;
// churn's delta batches: more than its reload cycles can use.
constexpr std::size_t kChurnBatches = 16;

// What the timed phases measured, read back by the metric section.
struct Timed {
  std::vector<Task*> open_tasks;  // point tasks, then the bulk task
  std::int64_t open_start = 0;
  std::int64_t open_end = 0;
  LoopStats open_stats;
  std::vector<double> open_steal;  // per open-loop window
  std::vector<double> sat_steal;   // per saturation window
  std::vector<double> sat_answers;  // distances answered per s, per window
  double rss_mb = 0;
  ah::server::CacheStats cache0, cache1;
  ah::server::AdmissionStats adm0, adm1;
  std::uint64_t wire_in = 0;   // bytes over the open-loop phase
  std::uint64_t wire_out = 0;
  std::vector<double> reload_samples;
  std::vector<double> reload_steal;
  std::vector<double> post_swap_hit;
};

std::string DistBody(NodeId s, NodeId t) {
  std::string body;
  ah::server::PutU32(&body, s);
  ah::server::PutU32(&body, t);
  return body;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host CPU ticks (all, stolen) from /proc/stat: on a virtual machine the
// stolen share says how much of a phase the host took away.
std::pair<double, double> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  double total = 0;
  for (double& x : v) {
    in >> x;
    total += x;
  }
  return {total, v[7]};
}

double StealShare(std::pair<double, double> t0, std::pair<double, double> t1) {
  return t1.first > t0.first ? (t1.second - t0.second) / (t1.first - t0.first) : 0;
}

// Stolen share of each of `windows` equal slices of [start, end): a thread
// reads the host CPU ticks at every slice boundary.
class StealWindows {
 public:
  StealWindows(std::int64_t start, std::int64_t end, std::size_t windows)
      : thread_([this, start, end, windows] {
          for (std::size_t i = 0; i <= windows; ++i) {
            const std::int64_t at =
                start + (end - start) * static_cast<std::int64_t>(i) /
                            static_cast<std::int64_t>(windows);
            std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
                std::chrono::nanoseconds(at)));
            ticks_.push_back(CpuTicks());
          }
        }) {}
  StealWindows(const StealWindows&) = delete;
  StealWindows& operator=(const StealWindows&) = delete;
  ~StealWindows() {
    if (thread_.joinable()) thread_.join();
  }

  /// Waits for the last boundary.
  std::vector<double> Shares() {
    if (thread_.joinable()) thread_.join();
    std::vector<double> shares;
    for (std::size_t i = 1; i < ticks_.size(); ++i) {
      shares.push_back(StealShare(ticks_[i - 1], ticks_[i]));
    }
    return shares;
  }

 private:
  std::vector<std::pair<double, double>> ticks_;
  std::thread thread_;
};

std::size_t QuietCount(const std::vector<double>& steal) {
  return static_cast<std::size_t>(std::count_if(
      steal.begin(), steal.end(), [](double s) { return s <= kQuietSteal; }));
}

std::string Joined(const std::vector<double>& values, double scale,
                   const char* unit) {
  std::string s;
  for (const double x : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.2f", s.empty() ? "" : " ", scale * x);
    s += buf;
  }
  return s + " " + unit;
}

std::string Percents(const std::vector<double>& shares) {
  return Joined(shares, 100, "%");
}

// One request on a v2 connection, its reply rendered as v1 text; empty when
// the connection fails.
std::string Ask(ah::server::BinaryClient& client, Opcode op,
                std::string_view body) {
  const std::uint64_t id = client.SendRequest(op, body);
  ah::server::BinaryClient::Frame reply;
  if (id == 0 || !client.ReadReplyFor(id, &reply)) return {};
  return ah::server::ReplyFrameToText(reply.header, reply.payload);
}

// Sends `updf <file>` then `reload` on `admin`, and waits until every
// backend's epoch in `stats` has advanced past `before`. Returns the
// seconds from `reload` sent to the last epoch seen advanced, or a
// negative value on failure. `on_epoch` sees each advance as it is seen.
template <typename OnEpoch>
double TimedReload(ah::server::BinaryClient& admin, const std::string& delta_file,
                   const std::vector<std::string>& backends,
                   std::vector<std::uint32_t> before,
                   OnEpoch&& on_epoch) {
  const std::string updf = Ask(admin, Opcode::kUpdateFile, delta_file);
  if (updf.rfind("OK updf", 0) != 0) {
    std::printf("!! updf failed: %s\n", updf.c_str());
    return -1;
  }
  const std::int64_t t0 = NowNs();
  const std::string reload = Ask(admin, Opcode::kReload, {});
  if (reload.rfind("OK reload", 0) != 0) {
    std::printf("!! reload failed: %s\n", reload.c_str());
    return -1;
  }
  std::vector<std::uint32_t> seen = before;
  std::string stats;
  while (NowNs() - t0 < 60 * kSec) {
    stats = Ask(admin, Opcode::kStats, {});
    bool all = true;
    for (std::size_t b = 0; b < backends.size(); ++b) {
      const long long g = StatValue(stats, "epoch_" + backends[b]);
      if (g > static_cast<long long>(seen[b])) {
        seen[b] = static_cast<std::uint32_t>(g);
        on_epoch(b, seen[b]);
      }
      all = all && seen[b] > before[b];
    }
    if (all) return static_cast<double>(NowNs() - t0) * 1e-9;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  std::printf("!! epochs did not advance within 60 s: %s\n", stats.c_str());
  return -1;
}

bool WriteDeltas(const std::string& path,
                 const std::vector<ah::WeightDelta>& deltas) {
  std::ofstream out(path, std::ios::binary);
  ah::SaveWeightDeltas(out, deltas);
  return static_cast<bool>(out);
}

Task MakeTask(Conn* conn, const Inputs* inputs, std::uint32_t stream,
              bool bulk, const std::vector<std::string>& prefix) {
  Task t;
  t.conn = conn;
  t.inputs = inputs;
  t.stream = stream;
  t.bulk = bulk;
  t.prefix = prefix;
  return t;
}

// Index of the equal-width window of [start, end) that holds `t`.
std::size_t WindowOf(std::int64_t t, std::int64_t start, std::int64_t end,
                     std::size_t windows) {
  const double f = static_cast<double>(t - start) / static_cast<double>(end - start);
  return std::min<std::size_t>(windows - 1,
                               static_cast<std::size_t>(std::max(0.0, f) * windows));
}

}  // namespace

std::vector<bool> Measured(const std::vector<double>& steal, std::size_t at_least) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::vector<bool> measured(steal.size(), false);
  for (std::size_t i = 0; i < order.size(); ++i) {
    measured[order[i]] = i < at_least || steal[order[i]] <= kQuietSteal;
  }
  return measured;
}

double MeasuredSteal(const std::vector<double>& steal, const std::vector<bool>& measured) {
  double worst = 0;
  for (std::size_t w = 0; w < steal.size(); ++w) {
    if (measured[w]) worst = std::max(worst, steal[w]);
  }
  return worst;
}

ah::server::ServerConfig BenchServerConfig() {
  ah::server::ServerConfig config;
  config.num_threads = kEngineThreads;
  return config;
}

ah::Graph MakeBenchGraph() {
  return ah::MakeScaledDataset(*ah::FindDataset(kDataset), kScale);
}

Served::Served() = default;
Served::~Served() {
  if (tcp) tcp->Stop();
}

std::unique_ptr<Served> SetUp(const std::vector<std::string>& backends,
                              const ah::server::ServerConfig& config,
                              double* seconds) {
  const std::int64_t t0 = NowNs();
  auto served = std::make_unique<Served>();
  served->graph = MakeBenchGraph();
  served->registry =
      std::make_shared<ah::IndexRegistry>(served->graph, backends);
  served->stack =
      std::make_unique<ah::server::ServerStack>(served->registry, config);
  served->tcp = std::make_unique<ah::server::TcpServer>(*served->stack);
  std::string error;
  if (!served->tcp->Start(&error)) {
    std::printf("!! server start failed: %s\n", error.c_str());
    return nullptr;
  }
  served->port = served->tcp->Port();
  ah::server::BinaryClient probe;
  if (!probe.Connect(served->port) ||
      Ask(probe, Opcode::kDistance, DistBody(0, 1)).rfind("OK d", 0) != 0) {
    return nullptr;
  }
  *seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return served;
}

double VmRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

void RunEndToEnd(const RunOptions& options, Outcome* out) {
  const WorkloadSpec& spec = options.spec;
  const bool churn = spec.kind == WorkloadKind::kChurn;
  const std::int64_t run_start = NowNs();

  // --- Set-up, repeated; the last one serves. ---------------------------
  const std::size_t repeats = options.trace ? 1 : spec.setup_repeats;
  std::vector<double> setup_times;
  std::unique_ptr<Served> served;
  double rss_base = 0;
  for (std::size_t i = 0; i < repeats; ++i) {
    served.reset();
    malloc_trim(0);
    rss_base = VmRssMiB();
    double seconds = 0;
    served = SetUp(spec.backends, BenchServerConfig(), &seconds);
    if (!served) {
      out->invalid = "set-up failed";
      return;
    }
    setup_times.push_back(seconds);
    std::printf("[setup] %zu/%zu %.3f s\n", i + 1, repeats, seconds);
    std::fflush(stdout);
  }
  const ah::Graph& graph = served->graph;
  ah::server::ServerStack& stack = *served->stack;
  double index_bytes = 0;
  std::vector<ah::EpochHandle> pinned;
  for (const std::string& name : spec.backends) {
    pinned.push_back(served->registry->Current(name));
    index_bytes += static_cast<double>(pinned.back()->oracle->BuildStats().index_bytes);
  }

  const Inputs inputs(spec, graph.NumNodes(), options.seed);
  std::vector<std::string> prefix(spec.backends.size());
  if (spec.backends.size() > 1) prefix = spec.backends;

  // --- References (untimed) ----------------------------------------------
  std::vector<ah::Graph> versions;
  std::vector<GridReference> refs;
  if (inputs.pooled()) {
    versions.push_back(graph);
    refs.emplace_back(graph, inputs.grid());
  }
  ah::TrafficFeedParams feed_params;
  feed_params.seed = inputs.DeltaSeed();
  ah::TrafficFeed feed(graph, feed_params);
  std::vector<std::vector<ah::WeightDelta>> batches;
  std::vector<std::string> delta_files;
  for (std::size_t k = 0; k < (churn ? kChurnBatches : 0); ++k) {
    batches.push_back(feed.NextBatch());
    delta_files.push_back(options.workdir + "/deltas_" + std::to_string(k) + ".ahud");
    if (!WriteDeltas(delta_files.back(), batches.back())) {
      out->invalid = "cannot write " + delta_files.back();
      return;
    }
  }

  // --- Connections ---------------------------------------------------------
  std::vector<std::unique_ptr<Conn>> point_conns;
  for (const bool v2 : spec.point_v2) {
    point_conns.push_back(std::make_unique<Conn>());
    if (!point_conns.back()->Open(served->port, v2)) {
      out->invalid = "connect failed";
      return;
    }
  }
  Conn bulk_conn;
  ah::server::BinaryClient admin;  // churn's reload loop
  if (!bulk_conn.Open(served->port, true) ||
      (churn && !admin.Connect(served->port))) {
    out->invalid = "connect failed";
    return;
  }

  std::vector<std::unique_ptr<Task>> all_tasks;  // verified at the end
  const auto keep = [&](Task t) {
    all_tasks.push_back(std::make_unique<Task>(std::move(t)));
    return all_tasks.back().get();
  };
  LoopStats warm_stats;

  // --- Warm-up (untimed) ---------------------------------------------------
  {
    // A connection carries one task per RunTasks call, so a connection
    // that walks the grid first runs its warm stream in the second round.
    std::vector<Task*> first;
    std::vector<Task*> second;
    for (std::size_t c = 0; c < point_conns.size(); ++c) {
      Conn* conn = point_conns[c].get();
      const bool walks = inputs.pooled() && conn->v2();
      if (walks) {
        Task walk = MakeTask(conn, &inputs, kStreamGridWalk, false, prefix);
        walk.count = 2 * inputs.grid().side * inputs.grid().side;
        walk.window = kWarmWindow;
        walk.stop_ns = LLONG_MAX;
        first.push_back(keep(std::move(walk)));
      }
      Task warm = MakeTask(conn, &inputs, c == 0 ? kStreamWarm : kStreamWarm1,
                           false, prefix);
      warm.count = churn ? 20000 : (inputs.pooled() ? 2000 : 4000);
      warm.window = kWarmWindow;
      warm.stop_ns = LLONG_MAX;
      (walks ? second : first).push_back(keep(std::move(warm)));
    }
    Task bulk = MakeTask(&bulk_conn, &inputs, kStreamBulkWarm, true, prefix);
    bulk.count = 8;
    bulk.window = 1;
    bulk.stop_ns = LLONG_MAX;
    first.push_back(keep(std::move(bulk)));
    RunTasks(first, NowNs() + 120 * kSec, &warm_stats);
    if (!second.empty()) RunTasks(second, NowNs() + 120 * kSec, &warm_stats);
  }

  // --- Timed phases: open loop, then closed-loop saturation ---------------
  const double open_s = kOpenShare * options.seconds;
  const double sat_s = options.seconds - open_s;
  std::atomic<std::uint32_t> gens[2];
  for (auto& g : gens) g.store(1);
  std::size_t cycles = 0;  // churn reload cycles (graph versions past base)
  const auto run_timed = [&] {
    Timed r;
    r.cache0 = stack.cache().Totals();
    r.adm0 = stack.admission().Totals();
    r.wire_in = stack.wire().bytes_in.load();
    r.wire_out = stack.wire().bytes_out.load();
    r.open_start = NowNs() + 20 * 1000000;
    r.open_end = r.open_start + static_cast<std::int64_t>(open_s * kSec);
    const std::int64_t start = r.open_start;
    const std::int64_t end = r.open_end;
    StealWindows open_steal(start, end, kOpenWindows);
    const std::int64_t period = static_cast<std::int64_t>(kSec / spec.point_rate);
    const std::size_t open_window = BenchServerConfig().admission_per_client;
    std::vector<Task*> thread1;
    for (std::size_t c = 0; c < point_conns.size(); ++c) {
      Task t = MakeTask(point_conns[c].get(), &inputs,
                        static_cast<std::uint32_t>(kStreamPoint0 + c), false, prefix);
      t.count = static_cast<std::uint64_t>(spec.point_rate * open_s);
      t.period_ns = period;
      t.window = open_window;
      t.start_ns = start + period * static_cast<std::int64_t>(c) /
                               static_cast<std::int64_t>(point_conns.size());
      if (churn) t.gens = gens;
      thread1.push_back(keep(std::move(t)));
    }
    Task b = MakeTask(&bulk_conn, &inputs, kStreamBulk, true, prefix);
    if (spec.bulk_rate > 0) {
      b.count = static_cast<std::uint64_t>(spec.bulk_rate * open_s);
      b.period_ns = static_cast<std::int64_t>(kSec / spec.bulk_rate);
      b.window = open_window;
      b.start_ns = start;
    } else {
      b.count = std::uint64_t{1} << 30;
      b.window = 1;
      b.start_ns = start;
      b.stop_ns = end;
    }
    if (churn) b.gens = gens;
    Task* bulk = keep(std::move(b));
    r.open_tasks = thread1;
    r.open_tasks.push_back(bulk);
    if (spec.bulk_rate > 0) thread1.push_back(bulk);

    LoopStats second_stats;
    std::thread second([&] {
      if (spec.bulk_rate == 0) {
        while (NowNs() < start) std::this_thread::yield();
        RunTasks({bulk}, end + 30 * kSec, &second_stats);
        return;
      }
      if (!churn) return;
      // Admin loop: updf -> reload -> wait for both epochs -> serve for as
      // long again, until the phase ends.
      while (NowNs() < start) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      while (NowNs() < end && cycles < delta_files.size()) {
        std::vector<std::uint32_t> before;
        for (auto& g : gens) before.push_back(g.load());
        before.resize(spec.backends.size());
        const auto ticks0 = CpuTicks();
        const double secs = TimedReload(
            admin, delta_files[cycles], spec.backends, before,
            [&](std::size_t be, std::uint32_t g) {
              gens[be].store(g, std::memory_order_release);
            });
        if (secs < 0) {
          out->invalid = "reload cycle failed";
          return;
        }
        const ah::server::CacheStats at_swap = stack.cache().Totals();
        r.reload_samples.push_back(secs);
        r.reload_steal.push_back(StealShare(ticks0, CpuTicks()));
        ++cycles;
        // Post-swap window: cache behaviour over the next 250 ms.
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        const ah::server::CacheStats after = stack.cache().Totals();
        const double h = static_cast<double>(after.hits - at_swap.hits);
        const double m = static_cast<double>(after.misses - at_swap.misses);
        if (h + m > 0) r.post_swap_hit.push_back(h / (h + m));
        const std::int64_t until = std::min<std::int64_t>(
            end, NowNs() + static_cast<std::int64_t>(secs * kSec) - 250 * 1000000);
        while (NowNs() < until) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    RunTasks(thread1, end + 30 * kSec, &r.open_stats, &stack);
    second.join();
    r.open_steal = open_steal.Shares();
    // Trimmed, like the baseline: RSS then counts live memory, not heap
    // pages freed with the retired epochs.
    malloc_trim(0);
    r.rss_mb = VmRssMiB() - rss_base;
    r.cache1 = stack.cache().Totals();
    r.adm1 = stack.admission().Totals();
    r.wire_in = stack.wire().bytes_in.load() - r.wire_in;
    r.wire_out = stack.wire().bytes_out.load() - r.wire_out;

    // churn's last swap may have landed just before the open loop ended;
    // re-walk the pool (untimed) so saturation starts from a warm cache.
    if (churn) {
      Task walk = MakeTask(point_conns[0].get(), &inputs, kStreamGridWalk, false, prefix);
      walk.count = 2 * inputs.grid().side * inputs.grid().side;
      walk.window = kWarmWindow;
      walk.stop_ns = LLONG_MAX;
      walk.gens = gens;
      RunTasks({keep(std::move(walk))}, NowNs() + 120 * kSec, &warm_stats);
    }
    const std::int64_t sat_start = NowNs() + 10 * 1000000;
    const std::int64_t stop = sat_start + static_cast<std::int64_t>(sat_s * kSec);
    std::vector<Task*> points;
    for (std::size_t c = 0; c < point_conns.size(); ++c) {
      Task t = MakeTask(point_conns[c].get(), &inputs,
                        static_cast<std::uint32_t>(kStreamSat0 + c), false, prefix);
      t.count = std::uint64_t{1} << 30;
      t.window = kSatWindow;
      t.start_ns = sat_start;
      t.stop_ns = stop;
      if (churn) t.gens = gens;
      points.push_back(keep(std::move(t)));
    }
    Task sb = MakeTask(&bulk_conn, &inputs, kStreamSatBulk, true, prefix);
    sb.count = std::uint64_t{1} << 30;
    sb.window = 1;
    sb.start_ns = sat_start;
    sb.stop_ns = stop;
    if (churn) sb.gens = gens;
    Task* sat_bulk = keep(std::move(sb));
    StealWindows sat_steal(sat_start, stop, kSatWindows);
    LoopStats s1, s2;
    std::thread saturate([&] {
      while (NowNs() < sat_start) std::this_thread::yield();
      RunTasks({sat_bulk}, stop + 30 * kSec, &s2);
    });
    while (NowNs() < sat_start) std::this_thread::yield();
    RunTasks(points, stop + 30 * kSec, &s1);
    saturate.join();
    r.sat_steal = sat_steal.Shares();
    // Distances answered per second in each window of the phase, counting
    // each reply in the window it arrived in.
    r.sat_answers.assign(kSatWindows, 0);
    points.push_back(sat_bulk);
    for (const Task* t : points) {
      for (const Sent& sent : t->sent) {
        if (!sent.ok || sent.done_ns < sat_start || sent.done_ns >= stop) continue;
        r.sat_answers[WindowOf(sent.done_ns, sat_start, stop, kSatWindows)] += sent.count;
      }
    }
    for (double& a : r.sat_answers) a /= sat_s / kSatWindows;
    return r;
  };

  // Timed attempts repeat while the host steals CPU time from too many
  // windows and the run's time budget leaves room for another.
  const std::string too_much_steal =
      "host CPU steal above " + std::to_string(100 * kMaxSteal) + "% in ";
  Timed timed;
  for (std::size_t attempt = 1;; ++attempt) {
    const std::int64_t attempt_start = NowNs();
    timed = run_timed();
    if (!out->invalid.empty()) return;
    std::printf("[timed] attempt %zu: host steal per window: open loop %s, "
                "saturation %s%s; answers per saturation window %s\n",
                attempt, Percents(timed.open_steal).c_str(),
                Percents(timed.sat_steal).c_str(),
                churn ? (", reloads " + Percents(timed.reload_steal)).c_str() : "",
                Joined(timed.sat_answers, 1e-6, "M/s").c_str());
    std::fflush(stdout);
    if (QuietCount(timed.open_steal) >= kMinMeasured &&
        (!churn || QuietCount(timed.reload_steal) > 0)) {
      break;
    }
    const double elapsed_s = static_cast<double>(NowNs() - run_start) * 1e-9;
    const double attempt_s = static_cast<double>(NowNs() - attempt_start) * 1e-9;
    if (elapsed_s + attempt_s <= kRunBudgetS) continue;
    double worst = MeasuredSteal(timed.open_steal, Measured(timed.open_steal, kMinMeasured));
    if (churn) {
      worst = std::max(worst, MeasuredSteal(timed.reload_steal,
                                            Measured(timed.reload_steal, 1)));
    }
    if (worst > kMaxSteal) {
      out->invalid = too_much_steal + "the quietest windows of every timed attempt";
      return;
    }
    break;
  }
  std::vector<double> reload_samples;
  const std::vector<bool> churn_reloads = Measured(timed.reload_steal, 1);
  for (std::size_t i = 0; i < churn_reloads.size(); ++i) {
    if (churn_reloads[i]) reload_samples.push_back(timed.reload_samples[i]);
  }

  // --- Verification (untimed) ---------------------------------------------
  if (inputs.pooled()) {
    for (std::size_t v = 1; v <= cycles; ++v) {
      ah::Graph next = versions.back();
      ah::ApplyWeightDeltas(&next, batches[v - 1]);
      versions.push_back(std::move(next));
      refs.emplace_back(versions.back(), inputs.grid());
    }
  }
  // Pooled traffic is checked against the grid references of every graph
  // version, fresh pairs against the kernel of the pinned first epochs.
  References base;
  base.pooled = inputs.pooled();
  for (std::size_t v = 0; v < refs.size(); ++v) {
    base.versions.push_back(&versions[v]);
    base.grids.push_back(&refs[v]);
  }
  if (!base.pooled) base.versions.push_back(&graph);
  for (const auto& epoch : pinned) base.oracles.push_back(epoch->oracle.get());
  std::atomic<std::uint64_t> wrong{0};
  struct Item {
    const Task* task;
    std::size_t k;
  };
  std::vector<Item> items;
  for (const auto& t : all_tasks) {
    if (!t->first_error.empty() || t->dropped) {
      std::printf("!! stream %u%s: %s\n", t->stream, t->dropped ? " (dropped)" : "",
                  t->first_error.c_str());
    }
    for (std::size_t k = 0; k < t->sent.size(); ++k) {
      ++out->attempted;
      const Sent& s = t->sent[k];
      if (s.done_ns == 0 || !s.ok) {
        ++out->failed;
        continue;
      }
      items.push_back({t.get(), k});
    }
  }
  ah::ParallelChunks(
      items.size(), 2048,
      [&](std::size_t, std::size_t begin, std::size_t end, std::size_t) {
        std::vector<std::unique_ptr<ah::QuerySession>> sessions;
        References own = base;
        for (const auto& epoch : pinned) {
          sessions.push_back(epoch->NewSession());
          own.sessions.push_back(sessions.back().get());
        }
        for (std::size_t i = begin; i < end; ++i) {
          const Task& t = *items[i].task;
          const Sent& s = t.sent[items[i].k];
          const bool ok =
              t.bulk ? VerifyBulk(own, inputs.Bulk(t.stream, items[i].k), s.gen,
                                  s.count, s.hash)
                     : VerifyPoint(own, inputs.Point(t.stream, items[i].k), s.gen,
                                   s.dist,
                                   s.path < 0 ? nullptr
                                              : &t.paths[static_cast<std::size_t>(s.path)]);
          if (!ok) wrong.fetch_add(1);
        }
      },
      4);
  // Fresh-pair traffic is checked against the kernel above; a fixed sample
  // re-checks the kernel itself against Dijkstra.
  if (!inputs.pooled()) {
    ah::Dijkstra dijkstra(graph);
    std::vector<std::unique_ptr<ah::QuerySession>> sessions;
    for (const auto& epoch : pinned) sessions.push_back(epoch->NewSession());
    for (std::uint64_t i = 0; i < 64; ++i) {
      const PointReq req = inputs.Point(kStreamPoint0, i);
      if (sessions[req.backend]->Distance(req.s, req.t) !=
          dijkstra.Distance(req.s, req.t)) {
        wrong.fetch_add(1);
      }
    }
    for (std::uint64_t j = 0; j < 2; ++j) {
      const BulkReq req = inputs.Bulk(kStreamBulk, j);
      for (std::size_t k = 0; k < 16; ++k) {
        const Pair p = req.cls == Cls::kBatch
                           ? req.pairs[k]
                           : Pair{req.sources[k % 4], req.targets[k / 4]};
        if (sessions[req.backend]->Distance(p.first, p.second) !=
            dijkstra.Distance(p.first, p.second)) {
          wrong.fetch_add(1);
        }
      }
    }
  }
  out->wrong = wrong.load();
  out->failed += out->wrong;

  // --- Streams -------------------------------------------------------------
  for (const Task* t : timed.open_tasks) {
    const std::uint64_t hash =
        t->bulk ? inputs.BulkStreamHash(t->stream, t->sent.size())
                : inputs.PointStreamHash(t->stream, t->sent.size());
    std::printf("[stream] %s stream %u: %zu requests, hash %016llx\n",
                t->bulk ? "bulk" : (t->conn->v2() ? "v2" : "v1"), t->stream,
                t->sent.size(),
                static_cast<unsigned long long>(hash));
  }
  if (churn) {
    std::printf("[stream] %zu delta batches of %zu arcs\n", cycles,
                feed.BatchSize());
  }

  // --- Metrics ---------------------------------------------------------------
  const std::vector<Task*>& open_tasks = timed.open_tasks;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  for (const Task* t : open_tasks) {
    sent += t->sent.size();
    answered += t->answered;
  }
  // Latency quantiles pool the samples of the open loop's measured windows.
  // On churn a window's latencies depend on whether a rebuild overlapped
  // it, so pooling keeps the rebuild share of the samples steady where a
  // median over windows would flip between the two regimes.
  const std::vector<bool> open_measured = Measured(timed.open_steal, kMinMeasured);
  Recorder lat[kNumCls];
  std::vector<Recorder> window_dist(kOpenWindows);
  for (const Task* t : open_tasks) {
    for (const Sent& s : t->sent) {
      const std::size_t w =
          WindowOf(s.due_ns, timed.open_start, timed.open_end, kOpenWindows);
      if (s.ok && open_measured[w]) {
        lat[static_cast<int>(s.cls)].Add(s.done_ns - s.due_ns);
      }
      if (s.ok && s.cls == Cls::kDist) window_dist[w].Add(s.done_ns - s.due_ns);
    }
  }
  // How far the host's speed drifted within the run.
  std::vector<double> window_p50;
  for (Recorder& r : window_dist) {
    window_p50.push_back(static_cast<double>(r.Quantile(0.5)) * 1e-3);
  }
  std::printf("[open] d p50 per window: %s\n", Joined(window_p50, 1, "us").c_str());

  MetricSheet& e = out->e2e;
  e.Add("setup_s", "s", Median(setup_times));
  static constexpr const char* kNames[] = {"dist", "path", "batch", "matrix"};
  for (std::size_t c = 0; c < kNumCls; ++c) {
    e.AddQuantile(std::string(kNames[c]) + "_p50_us", "us", lat[c], 0.5, 1e-3);
    e.AddQuantile(std::string(kNames[c]) + "_p90_us", "us", lat[c], 0.9, 1e-3);
    e.AddQuantile(std::string(kNames[c]) + "_p99_us", "us", lat[c], 0.99, 1e-3);
  }
  std::vector<double> answers;
  const std::vector<bool> sat_measured = Measured(timed.sat_steal, kMinMeasured);
  for (std::size_t w = 0; w < kSatWindows; ++w) {
    if (sat_measured[w]) answers.push_back(timed.sat_answers[w]);
  }
  e.Add("answers_per_s", "1/s", Median(answers));
  if (churn) e.Add("reload_s", "s", Median(reload_samples));
  e.Add("fail_frac", "frac",
        out->attempted == 0 ? 1.0
                            : static_cast<double>(out->failed) /
                                  static_cast<double>(out->attempted));
  e.Add("rss_mb", "MiB", timed.rss_mb);
  e.Add("index_mb", "MiB", index_bytes / (1024.0 * 1024.0));

  MetricSheet& l = out->layer;
  const ah::server::CacheStats& cache0 = timed.cache0;
  const ah::server::CacheStats& cache1 = timed.cache1;
  l.AddQuantile("loadgen.lag_us_p50", "us", timed.open_stats.lag_ns, 0.5, 1e-3);
  l.AddQuantile("loadgen.lag_us_p99", "us", timed.open_stats.lag_ns, 0.99, 1e-3);
  l.Add("host.steal_frac", "frac", MeasuredSteal(timed.open_steal, open_measured));
  l.Add("host.quiet_windows", "count", static_cast<double>(QuietCount(timed.open_steal)));
  l.Add("loadgen.sent", "count", static_cast<double>(sent));
  l.Add("loadgen.answered", "count", static_cast<double>(answered));
  l.Add("admission.shed", "count", static_cast<double>(timed.adm1.shed - timed.adm0.shed));
  l.Add("admission.expired", "count",
        static_cast<double>(timed.adm1.expired - timed.adm0.expired));
  l.Add("admission.in_flight_max", "count",
        static_cast<double>(timed.open_stats.in_flight_max));
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);
  l.Add("cache.hit_rate", "frac", hits + misses > 0 ? hits / (hits + misses) : 0);
  l.Add("cache.evictions_per_s", "1/s",
        static_cast<double>(cache1.evictions - cache0.evictions) / open_s);
  const std::size_t swaps = timed.reload_samples.size();
  if (churn && swaps > 0) {
    l.Add("cache.invalidations_per_swap", "count",
          static_cast<double>(cache1.invalidations - cache0.invalidations) /
              static_cast<double>(swaps));
    l.Add("cache.post_swap_hit_rate", "frac", Median(timed.post_swap_hit));
  }
  const double open_requests = static_cast<double>(std::max<std::uint64_t>(sent, 1));
  l.Add("tcp.e2e_bytes_in_per_req", "B",
        static_cast<double>(timed.wire_in) / open_requests);
  l.Add("tcp.e2e_bytes_out_per_req", "B",
        static_cast<double>(timed.wire_out) / open_requests);

  const double lag_p99_us =
      static_cast<double>(timed.open_stats.lag_ns.Quantile(0.99)) * 1e-3;
  if (lag_p99_us > kLagBoundUs) {
    out->invalid = "generator lag p99 " + std::to_string(lag_p99_us) +
                   " us exceeds the " + std::to_string(kLagBoundUs) + " us bound";
  }
  std::printf("[verify] %llu attempted, %llu failed (%llu wrong answers)\n",
              static_cast<unsigned long long>(out->attempted),
              static_cast<unsigned long long>(out->failed),
              static_cast<unsigned long long>(out->wrong));
}

}  // namespace perfbench
