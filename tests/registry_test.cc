// The epoch-versioned index lifecycle (api/index_registry.h): weight-delta
// validation and application at the graph layer, registry construction over
// multiple backends, live weight updates driving background rebuild + hot
// swap, RCU-style epoch retirement (an old epoch dies only when its last
// lease drops), and engine/registry interaction under concurrent load (the
// TSan CI job runs this suite).
#include "api/index_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/concurrent_engine.h"
#include "api/distance_oracle.h"
#include "graph/weight_update.h"
#include "hier/search_graph.h"
#include "routing/dijkstra.h"
#include "test_util.h"
#include "util/thread_annotations.h"

namespace ah {
namespace {

// ---------------------------------------------------------------------------
// Graph-layer delta application
// ---------------------------------------------------------------------------

TEST(WeightUpdateTest, SetArcWeightKeepsOutAndInAdjacencyMirrored) {
  const Graph g = testing::MakeRoadGraph(5, 3);
  ASSERT_GT(g.OutArcs(0).size(), 0u);
  const NodeId head = g.OutArcs(0)[0].head;
  Graph updated = g;
  EXPECT_EQ(updated.SetArcWeight(0, head, 777), 1u);
  EXPECT_EQ(updated.ArcWeight(0, head), 777u);
  bool found_in_mirror = false;
  for (const Arc& a : updated.InArcs(head)) {
    if (a.head == 0) {
      EXPECT_EQ(a.weight, 777u);
      found_in_mirror = true;
    }
  }
  EXPECT_TRUE(found_in_mirror);
  // Absent arc: no mutation, zero count.
  EXPECT_EQ(updated.SetArcWeight(0, 0, 5), 0u);
  // Structure untouched.
  EXPECT_EQ(updated.NumNodes(), g.NumNodes());
  EXPECT_EQ(updated.NumArcs(), g.NumArcs());
}

TEST(WeightUpdateTest, ValidateAndApplyDeltas) {
  const Graph g = testing::MakeRoadGraph(5, 3);
  const NodeId head = g.OutArcs(0)[0].head;
  const NodeId n = static_cast<NodeId>(g.NumNodes());

  EXPECT_EQ(ValidateWeightDelta(g, {0, head, 9}), DeltaStatus::kOk);
  EXPECT_EQ(ValidateWeightDelta(g, {n, head, 9}), DeltaStatus::kBadNode);
  EXPECT_EQ(ValidateWeightDelta(g, {0, head, 0}), DeltaStatus::kBadWeight);
  EXPECT_EQ(ValidateWeightDelta(g, {0, head, kMaxWeight}),
            DeltaStatus::kBadWeight);
  EXPECT_EQ(ValidateWeightDelta(g, {0, 0, 9}), DeltaStatus::kNoSuchArc);

  Graph updated = g;
  // Later deltas to the same arc win (the earlier one counts as coalesced);
  // invalid deltas are rejected — every delta lands in exactly one bucket.
  const std::vector<WeightDelta> deltas = {
      {0, head, 5}, {0, 0, 9}, {0, head, 11}};
  const DeltaApplyStats stats = ApplyWeightDeltas(&updated, deltas);
  EXPECT_EQ(stats.applied, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(updated.ArcWeight(0, head), 11u);
}

// ---------------------------------------------------------------------------
// Registry construction and epoch acquisition
// ---------------------------------------------------------------------------

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : graph_(testing::MakeRoadGraph(7, 11)) {}

  std::shared_ptr<IndexRegistry> MakeRegistry(
      std::vector<std::string> backends = {"dijkstra", "ch"}) {
    return std::make_shared<IndexRegistry>(graph_, backends);
  }

  /// The graph with one arc made heavier, plus the delta that does it.
  std::pair<Graph, WeightDelta> UpdatedGraph() const {
    const NodeId head = graph_.OutArcs(0)[0].head;
    const WeightDelta delta{
        0, head, static_cast<Weight>(graph_.OutArcs(0)[0].weight * 1000 + 1)};
    Graph updated = graph_;
    updated.SetArcWeight(delta.tail, delta.head, delta.weight);
    return {std::move(updated), delta};
  }

  Graph graph_;
};

TEST_F(RegistryTest, BuildsEveryBackendAndAnswersThroughHandles) {
  auto registry = MakeRegistry({"dijkstra", "ch", "alt"});
  EXPECT_EQ(registry->Backends().size(), 3u);
  EXPECT_EQ(registry->DefaultBackend(), "dijkstra");
  EXPECT_EQ(registry->NumNodes(), graph_.NumNodes());
  EXPECT_EQ(registry->NumArcs(), graph_.NumArcs());

  Dijkstra reference(graph_);
  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);
  for (const std::string& name : registry->Backends()) {
    const EpochHandle epoch = registry->Current(name);
    ASSERT_NE(epoch, nullptr);
    EXPECT_EQ(epoch->backend, name);
    EXPECT_EQ(epoch->generation, 1u);
    EXPECT_EQ(epoch->backend_id, registry->BackendId(name));
    auto session = epoch->NewSession();
    EXPECT_EQ(session->Distance(0, far), reference.Distance(0, far));
  }
  // Empty name routes to the default backend.
  EXPECT_EQ(registry->Current()->backend, "dijkstra");
  EXPECT_TRUE(registry->SetDefaultBackend("ch"));
  EXPECT_EQ(registry->Current()->backend, "ch");
}

TEST_F(RegistryTest, RejectsBadConstructionAndUnknownBackends) {
  EXPECT_THROW(IndexRegistry(graph_, {}), std::invalid_argument);
  EXPECT_THROW(IndexRegistry(graph_, {"ch", "ch"}), std::invalid_argument);
  EXPECT_THROW(IndexRegistry(graph_, {"nope"}), std::invalid_argument);

  auto registry = MakeRegistry();
  EXPECT_FALSE(registry->HasBackend("alt"));
  EXPECT_EQ(registry->Current("alt"), nullptr);
  EXPECT_EQ(registry->Generation("alt"), 0u);
  EXPECT_EQ(registry->BackendId("alt"), IndexRegistry::kInvalidBackend);
  EXPECT_FALSE(registry->SetDefaultBackend("alt"));
  EXPECT_EQ(registry->DefaultBackend(), "dijkstra");

  ConcurrentEngine engine(registry);
  EXPECT_THROW(engine.Lease("alt"), std::invalid_argument);
}

// The first generation builds its backends side by side. Each must come
// out exactly as a solo build over the same graph, and a bad name after the
// first still fails the constructor with its own error.
TEST_F(RegistryTest, ConcurrentFirstBuildMatchesSoloBuilds) {
  const Graph g = testing::MakeRoadGraph(14, 5);
  const std::vector<std::string> names = {"ah", "hl", "ch", "alt"};
  const IndexRegistry registry(g, names);

  const auto search_graph_bytes = [](const DistanceOracle& oracle) {
    std::ostringstream out;
    if (const SearchGraph* sg = oracle.UpwardSearchGraph()) sg->Save(out);
    return out.str();
  };
  const auto distance_checksum = [&](QuerySession& session) {
    Rng rng(23);
    std::uint64_t sum = 0;
    for (int q = 0; q < 200; ++q) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
      const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
      sum = sum * 1000003 + session.Distance(s, t);
    }
    return sum;
  };
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const EpochHandle epoch = registry.Current(name);
    ASSERT_NE(epoch, nullptr);
    const std::unique_ptr<DistanceOracle> solo = MakeOracle(name, g);
    EXPECT_EQ(epoch->oracle->BuildStats().index_bytes,
              solo->BuildStats().index_bytes);
    EXPECT_EQ(search_graph_bytes(*epoch->oracle), search_graph_bytes(*solo));
    EXPECT_EQ(distance_checksum(*epoch->NewSession()),
              distance_checksum(*solo->NewSession()));
  }
  EXPECT_FALSE(search_graph_bytes(*registry.Current("ah")->oracle).empty());
  EXPECT_FALSE(search_graph_bytes(*registry.Current("ch")->oracle).empty());

  EXPECT_THROW(IndexRegistry(g, {"ch", "nope"}), std::invalid_argument);
  EXPECT_THROW(IndexRegistry(g, {"ch", "hl", "nope"}), std::invalid_argument);
}

TEST_F(RegistryTest, QueueWeightUpdateValidatesAgainstBaseGraph) {
  auto registry = MakeRegistry();
  const NodeId head = graph_.OutArcs(0)[0].head;
  EXPECT_EQ(registry->QueueWeightUpdate(0, head, 9),
            IndexRegistry::UpdateStatus::kQueued);
  EXPECT_EQ(registry->QueueWeightUpdate(0, 0, 9),
            IndexRegistry::UpdateStatus::kNoSuchArc);
  EXPECT_EQ(registry->QueueWeightUpdate(0, head, 0),
            IndexRegistry::UpdateStatus::kBadWeight);
  EXPECT_EQ(
      registry->QueueWeightUpdate(static_cast<NodeId>(graph_.NumNodes()), 0, 9),
      IndexRegistry::UpdateStatus::kBadNode);
  EXPECT_EQ(registry->PendingUpdates(), 1u);
}

TEST_F(RegistryTest, StaticRegistryServesButRejectsLifecycle) {
  auto registry = IndexRegistry::AdoptStatic(MakeOracle("ch", graph_));
  EXPECT_EQ(registry->Backends(), std::vector<std::string>{"ch"});
  const EpochHandle epoch = registry->Current();
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->generation, 1u);

  EXPECT_EQ(registry->QueueWeightUpdate(0, 1, 9),
            IndexRegistry::UpdateStatus::kStatic);
  std::string error;
  EXPECT_FALSE(registry->RequestReload(&error));
  EXPECT_FALSE(error.empty());
  registry->WaitForRebuild();  // trivially idle; must not hang
}

// ---------------------------------------------------------------------------
// Reload: delta application, rebuild, swap
// ---------------------------------------------------------------------------

TEST_F(RegistryTest, ReloadAppliesDeltasRebuildsAndBumpsGenerations) {
  auto registry = MakeRegistry({"dijkstra", "ch"});
  auto [updated, delta] = UpdatedGraph();
  Dijkstra before(graph_);
  Dijkstra after(updated);

  ASSERT_EQ(registry->QueueWeightUpdate(delta.tail, delta.head, delta.weight),
            IndexRegistry::UpdateStatus::kQueued);
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();

  const IndexRegistry::RegistryStats stats = registry->GetStats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.swaps, 2u);  // one per backend
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.pending_updates, 0u);
  EXPECT_FALSE(stats.rebuild_in_flight);
  EXPECT_TRUE(stats.last_error.empty());

  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);
  for (const std::string& name : registry->Backends()) {
    const EpochHandle epoch = registry->Current(name);
    EXPECT_EQ(epoch->generation, 2u) << name;
    auto session = epoch->NewSession();
    for (NodeId t = 0; t < far; t += 5) {
      EXPECT_EQ(session->Distance(0, t), after.Distance(0, t))
          << name << " d(0, " << t << ")";
    }
  }
  // The update must actually have changed something, or this test proves
  // nothing about which graph answered.
  EXPECT_NE(before.Distance(0, delta.head), after.Distance(0, delta.head));

  // A reload with no pending deltas still rebuilds (generation 3).
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();
  EXPECT_EQ(registry->Generation("ch"), 3u);
}

TEST_F(RegistryTest, OldEpochRetiresOnlyAfterLastLeaseDrops) {
  auto registry = MakeRegistry({"dijkstra", "ch"});
  ConcurrentEngine engine(registry, 2);
  auto [updated, delta] = UpdatedGraph();
  Dijkstra before(graph_);
  Dijkstra after(updated);
  const NodeId probe = delta.head;

  std::weak_ptr<const IndexEpoch> old_epoch = registry->Current("ch");
  {
    ConcurrentEngine::SessionLease lease = engine.Lease("ch");
    EXPECT_EQ(lease.epoch().generation, 1u);

    ASSERT_EQ(registry->QueueWeightUpdate(delta.tail, delta.head, delta.weight),
              IndexRegistry::UpdateStatus::kQueued);
    ASSERT_TRUE(registry->RequestReload());
    registry->WaitForRebuild();
    EXPECT_EQ(registry->Generation("ch"), 2u);

    // The held lease is pinned to the retired epoch: it still answers, with
    // the OLD graph's distances, and keeps the epoch alive.
    EXPECT_EQ(lease->Distance(0, probe), before.Distance(0, probe));
    EXPECT_FALSE(old_epoch.expired());

    // A fresh lease picks up the new epoch and the new answer.
    ConcurrentEngine::SessionLease fresh = engine.Lease("ch");
    EXPECT_EQ(fresh.epoch().generation, 2u);
    EXPECT_EQ(fresh->Distance(0, probe), after.Distance(0, probe));
  }
  // Both leases returned; the stale session is dropped, not pooled, so the
  // old epoch is destroyed now.
  EXPECT_TRUE(old_epoch.expired());
}

TEST_F(RegistryTest, SwapPurgesPooledSessionsOfRetiredEpochs) {
  auto registry = MakeRegistry({"ch"});
  ConcurrentEngine engine(registry, 2);
  // Pool a few idle sessions over generation 1.
  { auto a = engine.Lease(); auto b = engine.Lease(); }
  std::weak_ptr<const IndexEpoch> old_epoch = registry->Current("ch");
  ASSERT_FALSE(old_epoch.expired());

  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();
  // No lease is outstanding, so the swap listener's purge is the only thing
  // standing between the idle pool and a pinned old index.
  EXPECT_TRUE(old_epoch.expired());
  EXPECT_EQ(engine.Lease().epoch().generation, 2u);
}

// ---------------------------------------------------------------------------
// Engine batches + concurrent load across swaps (TSan-checked in CI)
// ---------------------------------------------------------------------------

TEST_F(RegistryTest, BatchesRouteToNamedBackends) {
  auto registry = MakeRegistry({"dijkstra", "ch"});
  ConcurrentEngine engine(registry, 2);
  Dijkstra reference(graph_);
  std::vector<QueryPair> pairs;
  for (NodeId t = 0; t < 40; t += 3) {
    pairs.emplace_back(t % 7, (t * 5) % static_cast<NodeId>(graph_.NumNodes()));
  }
  std::vector<Dist> expected;
  for (const auto& [s, t] : pairs) expected.push_back(reference.Distance(s, t));

  EXPECT_EQ(engine.BatchDistance(pairs), expected);  // default backend
  EXPECT_EQ(engine.BatchDistance(pairs, 2, "ch"), expected);
  const auto paths = engine.BatchShortestPath(pairs, 0, "ch");
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(paths[i].length, expected[i]);
  }
}

TEST_F(RegistryTest, ConcurrentQueriesStayExactAcrossHotSwap) {
  auto registry = MakeRegistry({"dijkstra", "ch"});
  ConcurrentEngine engine(registry, 4);
  auto [updated, delta] = UpdatedGraph();
  Dijkstra before(graph_);
  Dijkstra after(updated);

  // Probe pairs with precomputed old/new answers: during the swap every
  // reply must be one of the two (an index is exact on the snapshot it was
  // built over); never garbage, never a dropped query.
  const NodeId n = static_cast<NodeId>(graph_.NumNodes());
  std::vector<QueryPair> probes;
  std::vector<Dist> old_expected;
  std::vector<Dist> new_expected;
  for (NodeId i = 0; i < 12; ++i) {
    const QueryPair pair{(i * 3) % n, (i * 17 + 1) % n};
    probes.push_back(pair);
    old_expected.push_back(before.Distance(pair.first, pair.second));
    new_expected.push_back(after.Distance(pair.first, pair.second));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      const std::string backend = c % 2 == 0 ? "dijkstra" : "ch";
      std::size_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t j = i++ % probes.size();
        const Dist d =
            engine.Lease(backend)->Distance(probes[j].first, probes[j].second);
        if (d != old_expected[j] && d != new_expected[j]) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  ASSERT_EQ(registry->QueueWeightUpdate(delta.tail, delta.head, delta.weight),
            IndexRegistry::UpdateStatus::kQueued);
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(bad.load(), 0u);
  // After the swap settles, every backend answers the updated graph.
  for (const std::string& name : registry->Backends()) {
    auto lease = engine.Lease(name);
    EXPECT_EQ(lease.epoch().generation, 2u);
    for (std::size_t j = 0; j < probes.size(); ++j) {
      EXPECT_EQ(lease->Distance(probes[j].first, probes[j].second),
                new_expected[j])
          << name;
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental rebuild policy, fallback, and reload coalescing
// ---------------------------------------------------------------------------

TEST_F(RegistryTest, FrozenOrderPolicyRecordsIncrementalRebuilds) {
  auto registry = MakeRegistry({"ch"});
  EXPECT_EQ(registry->GetRebuildPolicy(),
            IndexRegistry::RebuildPolicy::kFrozenOrder);
  auto [updated, delta] = UpdatedGraph();

  ASSERT_EQ(registry->QueueWeightUpdate(delta.tail, delta.head, delta.weight),
            IndexRegistry::UpdateStatus::kQueued);
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();

  const IndexRegistry::RegistryStats stats = registry->GetStats();
  ASSERT_EQ(stats.backend_rebuilds.size(), 1u);
  EXPECT_EQ(stats.backend_rebuilds[0].incremental, 1u);
  EXPECT_EQ(stats.backend_rebuilds[0].full, 0u);
  EXPECT_EQ(stats.backend_rebuilds[0].fallbacks, 0u);
  EXPECT_GT(stats.backend_rebuilds[0].last_rebuild_seconds, 0.0);

  // The incrementally repaired epoch must answer for the updated graph.
  Dijkstra after(updated);
  auto session = registry->Current("ch")->NewSession();
  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);
  for (NodeId t = 0; t < far; t += 3) {
    ASSERT_EQ(session->Distance(0, t), after.Distance(0, t)) << t;
  }
}

TEST_F(RegistryTest, FromScratchPolicyRecordsFullRebuilds) {
  auto registry = MakeRegistry({"ch"});
  registry->SetRebuildPolicy(IndexRegistry::RebuildPolicy::kFromScratch);
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();

  const IndexRegistry::RegistryStats stats = registry->GetStats();
  ASSERT_EQ(stats.backend_rebuilds.size(), 1u);
  EXPECT_EQ(stats.backend_rebuilds[0].incremental, 0u);
  EXPECT_EQ(stats.backend_rebuilds[0].full, 1u);
  EXPECT_EQ(stats.backend_rebuilds[0].fallbacks, 0u);
}

TEST_F(RegistryTest, BackendWithoutIncrementalPathBuildsFromScratch) {
  // dijkstra has no RebuildWithFrozenOrder (returns nullptr): the worker
  // silently builds from scratch — that is not a fallback (nothing failed).
  auto registry = MakeRegistry({"dijkstra"});
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();

  const IndexRegistry::RegistryStats stats = registry->GetStats();
  ASSERT_EQ(stats.backend_rebuilds.size(), 1u);
  EXPECT_EQ(stats.backend_rebuilds[0].incremental, 0u);
  EXPECT_EQ(stats.backend_rebuilds[0].full, 1u);
  EXPECT_EQ(stats.backend_rebuilds[0].fallbacks, 0u);
}

TEST_F(RegistryTest, IncrementalFailureFallsBackWithoutDroppingEpoch) {
  auto registry = MakeRegistry({"ch"});
  registry->SetIncrementalFactoryForTest(
      [](const DistanceOracle&, const Graph&) -> std::unique_ptr<DistanceOracle> {
        throw std::runtime_error("synthetic incremental failure");
      });
  auto [updated, delta] = UpdatedGraph();
  ASSERT_EQ(registry->QueueWeightUpdate(delta.tail, delta.head, delta.weight),
            IndexRegistry::UpdateStatus::kQueued);
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();

  const IndexRegistry::RegistryStats stats = registry->GetStats();
  ASSERT_EQ(stats.backend_rebuilds.size(), 1u);
  EXPECT_EQ(stats.backend_rebuilds[0].incremental, 0u);
  EXPECT_EQ(stats.backend_rebuilds[0].full, 1u);
  EXPECT_EQ(stats.backend_rebuilds[0].fallbacks, 1u);
  EXPECT_NE(stats.last_error.find("incremental"), std::string::npos);

  // The fallback still published a fresh epoch with the deltas applied.
  EXPECT_EQ(registry->Generation("ch"), 2u);
  Dijkstra after(updated);
  auto session = registry->Current("ch")->NewSession();
  EXPECT_EQ(session->Distance(0, delta.head), after.Distance(0, delta.head));

  // Restoring the real path resumes incremental rebuilds.
  registry->SetIncrementalFactoryForTest(nullptr);
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();
  EXPECT_EQ(registry->GetStats().backend_rebuilds[0].incremental, 1u);
}

TEST_F(RegistryTest, QueueWeightUpdatesIsAllOrNothing) {
  auto registry = MakeRegistry({"dijkstra"});
  const NodeId head = graph_.OutArcs(0)[0].head;
  const NodeId n = static_cast<NodeId>(graph_.NumNodes());

  const WeightDelta bad[] = {{0, head, 9}, {n, head, 9}};
  std::size_t first_bad = 0;
  EXPECT_EQ(registry->QueueWeightUpdates(bad, &first_bad),
            IndexRegistry::UpdateStatus::kBadNode);
  EXPECT_EQ(first_bad, 1u);
  EXPECT_EQ(registry->PendingUpdates(), 0u);  // Nothing queued on failure.

  const WeightDelta good[] = {{0, head, 9}, {0, head, 12}};
  EXPECT_EQ(registry->QueueWeightUpdates(good),
            IndexRegistry::UpdateStatus::kQueued);
  EXPECT_EQ(registry->PendingUpdates(), 1u);  // Coalesced per arc.
}

TEST_F(RegistryTest, MinReloadIntervalCoalescesBackToBackRequests) {
  auto registry = MakeRegistry({"dijkstra"});
  registry->SetMinReloadInterval(std::chrono::milliseconds(150));

  // First cycle starts immediately (no previous cycle to hold off from).
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();
  ASSERT_EQ(registry->GetStats().reloads, 1u);

  // A burst of requests inside the hold-off window coalesces into exactly
  // one deferred cycle.
  const NodeId head = graph_.OutArcs(0)[0].head;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(registry->QueueWeightUpdate(0, head, 100 + i),
              IndexRegistry::UpdateStatus::kQueued);
    ASSERT_TRUE(registry->RequestReload());
  }
  registry->WaitForRebuild();

  const IndexRegistry::RegistryStats stats = registry->GetStats();
  EXPECT_EQ(stats.reloads, 2u);          // 5 requests -> 1 extra cycle.
  EXPECT_EQ(stats.updates_applied, 1u);  // Same arc: deltas coalesced too.
  EXPECT_EQ(stats.pending_updates, 0u);
}

// ---------------------------------------------------------------------------
// Warm-up hook
// ---------------------------------------------------------------------------

// The hook fires once per backend on the build worker, with the rebuilt
// epoch, strictly before that epoch is published: while the hook runs, the
// registry still serves the old generation — the warm-up window in which a
// cache can be re-primed without a single stale-epoch answer going out.
TEST_F(RegistryTest, WarmupHookRunsPrePublishWithTheFreshEpoch) {
  auto registry = MakeRegistry({"dijkstra", "ch"});
  auto [updated, delta] = UpdatedGraph();
  Dijkstra after(updated);
  const NodeId far = static_cast<NodeId>(graph_.NumNodes() - 1);

  struct Observation {
    std::string backend;
    std::uint64_t fresh_generation;
    std::uint64_t published_generation;
    Dist fresh_answer;
  };
  Mutex mu;
  std::vector<Observation> seen;
  registry->SetWarmupHook([&](const IndexEpoch& fresh) {
    // Queries on the unpublished epoch must already see the new weights.
    const Dist d = fresh.NewSession()->Distance(0, far);
    MutexLock lock(mu);
    seen.push_back(Observation{fresh.backend, fresh.generation,
                               registry->Generation(fresh.backend), d});
  });

  ASSERT_EQ(registry->QueueWeightUpdate(delta.tail, delta.head, delta.weight),
            IndexRegistry::UpdateStatus::kQueued);
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();

  {
    MutexLock lock(mu);
    ASSERT_EQ(seen.size(), 2u);  // once per backend
    for (const Observation& obs : seen) {
      EXPECT_EQ(obs.fresh_generation, 2u) << obs.backend;
      EXPECT_EQ(obs.published_generation, 1u)
          << obs.backend << ": hook must run before the swap";
      EXPECT_EQ(obs.fresh_answer, after.Distance(0, far)) << obs.backend;
    }
  }

  // Clearing the hook blocks out any in-flight warm-up; later swaps run
  // without it.
  registry->SetWarmupHook(nullptr);
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();
  MutexLock lock(mu);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_TRUE(registry->GetStats().last_error.empty());
}

// A throwing hook must not block the swap — the epoch still publishes and
// the failure is surfaced through last_error.
TEST_F(RegistryTest, ThrowingWarmupHookDoesNotBlockTheSwap) {
  auto registry = MakeRegistry({"dijkstra"});
  registry->SetWarmupHook([](const IndexEpoch&) {
    throw std::runtime_error("warm-up exploded");
  });
  ASSERT_TRUE(registry->RequestReload());
  registry->WaitForRebuild();
  EXPECT_EQ(registry->Generation("dijkstra"), 2u);  // published anyway
  EXPECT_NE(registry->GetStats().last_error.find("warmup"), std::string::npos);
}

}  // namespace
}  // namespace ah
