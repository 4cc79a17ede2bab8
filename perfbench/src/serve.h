// The end-to-end run: starts the serving stack in-process, drives it over
// loopback through warm-up, an open-loop phase and a closed-loop
// saturation phase (churn: with timed reload cycles), and verifies every
// answer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "inputs.h"
#include "recorder.h"

namespace ah {
class IndexRegistry;
}
namespace ah::server {
class ServerStack;
class TcpServer;
struct ServerConfig;
}  // namespace ah::server

namespace perfbench {

/// The benchmark serves the DE catalog stand-in at this scale.
inline constexpr const char* kDataset = "DE";
inline constexpr double kScale = 1.0;
/// Engine fan-out; every other ServerConfig field keeps its default.
inline constexpr std::size_t kEngineThreads = 2;
/// Open-loop runs whose generator lag p99 exceeds this are invalid.
/// Lag that high means the generator, not the server, set the pace. A
/// rebuild's worker threads starve it for a few milliseconds, and host CPU
/// steal on a shared virtual machine was seen to push the p99 past 10 ms.
inline constexpr double kLagBoundUs = 50000;
/// A timed window is quiet when the host stole at most kQuietSteal of the
/// machine's CPU time during it. On this benchmark's 4-vCPU virtual machine
/// a 2% steal share already moved open-loop medians by 10%, and 5% by 45%:
/// past kMaxSteal a figure says more about the host than about the program.
inline constexpr double kQuietSteal = 0.015;
inline constexpr double kMaxSteal = 0.05;

/// Which windows (or reloads) the metrics come from, given each one's steal
/// share: the quiet ones, or the `at_least` quietest when fewer are quiet.
std::vector<bool> Measured(const std::vector<double>& steal, std::size_t at_least);
/// Largest steal share among the measured windows.
double MeasuredSteal(const std::vector<double>& steal, const std::vector<bool>& measured);

ah::server::ServerConfig BenchServerConfig();
ah::Graph MakeBenchGraph();

struct RunOptions {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  /// Empty when the run is valid; otherwise why its numbers mean nothing.
  std::string invalid;
  MetricSheet e2e;
  MetricSheet layer;
};

/// One served set-up: the registry over the benchmark graph, the stack and
/// a started TCP front-end. Destruction stops the server first.
struct Served {
  Served();
  ~Served();
  ah::Graph graph;
  std::shared_ptr<ah::IndexRegistry> registry;
  std::unique_ptr<ah::server::ServerStack> stack;
  std::unique_ptr<ah::server::TcpServer> tcp;
  std::uint16_t port = 0;
};

/// Builds graph, registry, stack and server and waits for the first reply.
/// Returns nullptr on failure.
std::unique_ptr<Served> SetUp(const std::vector<std::string>& backends,
                              const ah::server::ServerConfig& config,
                              double* seconds);

/// Resident set size of this process in MiB (/proc/self/status VmRSS).
double VmRssMiB();

void RunEndToEnd(const RunOptions& options, Outcome* out);

}  // namespace perfbench
