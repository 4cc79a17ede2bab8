// Save/load round-trips for every artifact with util/serialize.h-based
// persistence (Graph, SearchGraph, ChIndex, AhIndex, FcIndex, HlIndex): the
// loaded copy must answer queries identically, and re-saving it must
// reproduce the original byte stream (so the format has no hidden state).
// HlIndex also loads its older v1 image and rejects corrupt images.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/distance_oracle.h"
#include "ch/ch_index.h"
#include "core/ah_query.h"
#include "fc/fc_index.h"
#include "graph/graph.h"
#include "hier/search_graph.h"
#include "hl/hl_index.h"
#include "routing/dijkstra.h"
#include "routing/path.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace ah {
namespace {

template <typename Artifact>
std::string Bytes(const Artifact& artifact) {
  std::stringstream ss;
  artifact.Save(ss);
  return ss.str();
}

template <typename Artifact>
Artifact ReloadAndCheckBytes(const Artifact& artifact) {
  const std::string original = Bytes(artifact);
  std::stringstream in(original);
  Artifact loaded = Artifact::Load(in);
  EXPECT_EQ(Bytes(loaded), original)
      << "re-saving a loaded artifact changed the byte stream";
  return loaded;
}

TEST(SerializeRoundTripTest, GraphAnswersIdentically) {
  const Graph g = testing::MakeRandomGraph(70, 210, 41);
  const Graph loaded = ReloadAndCheckBytes(g);
  ASSERT_EQ(loaded.NumNodes(), g.NumNodes());
  ASSERT_EQ(loaded.NumArcs(), g.NumArcs());
  Dijkstra a(g);
  Dijkstra b(loaded);
  Rng rng(41);
  for (int i = 0; i < 60; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(a.Distance(s, t), b.Distance(s, t));
  }
}

TEST(SerializeRoundTripTest, SearchGraphPreservesArcsAndUnpacking) {
  const Graph g = testing::MakeRoadGraph(12, 42);
  const ChIndex index = ChIndex::Build(g);
  const SearchGraph& sg = index.search_graph();
  const SearchGraph loaded = ReloadAndCheckBytes(sg);

  ASSERT_EQ(loaded.NumNodes(), sg.NumNodes());
  ASSERT_EQ(loaded.NumArcs(), sg.NumArcs());
  for (NodeId v = 0; v < sg.NumNodes(); ++v) {
    ASSERT_EQ(loaded.RankOf(v), sg.RankOf(v));
    const auto a = sg.UpOut(v);
    const auto b = loaded.UpOut(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_EQ(a[i].weight, b[i].weight);
      // Shortcut unpacking must survive (midpoint tables included).
      std::vector<NodeId> ua, ub;
      sg.AppendUnpacked(v, a[i].node, &ua);
      loaded.AppendUnpacked(v, b[i].node, &ub);
      EXPECT_EQ(ua, ub);
    }
  }
}

TEST(SerializeRoundTripTest, ChIndexAnswersIdentically) {
  const Graph g = testing::MakeRoadGraph(14, 43);
  const ChIndex built = ChIndex::Build(g);
  const ChIndex loaded = ReloadAndCheckBytes(built);

  ChQuery q1(built);
  ChQuery q2(loaded);
  Rng rng(43);
  for (int i = 0; i < 80; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(q2.Distance(s, t), q1.Distance(s, t));
    const PathResult p1 = q1.Path(s, t);
    const PathResult p2 = q2.Path(s, t);
    ASSERT_EQ(p2.length, p1.length);
    EXPECT_EQ(p2.nodes, p1.nodes);
  }
}

TEST(SerializeRoundTripTest, AhIndexAnswersIdentically) {
  const Graph g = testing::MakeRoadGraph(14, 44);
  const AhIndex built = AhIndex::Build(g);
  const AhIndex loaded = ReloadAndCheckBytes(built);

  AhQuery q1(built);
  AhQuery q2(loaded);
  Rng rng(44);
  for (int i = 0; i < 80; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(q2.Distance(s, t), q1.Distance(s, t));
    const PathResult p1 = q1.Path(s, t);
    const PathResult p2 = q2.Path(s, t);
    ASSERT_EQ(p2.length, p1.length);
    if (p1.Found()) {
      EXPECT_TRUE(IsValidPath(g, p2.nodes, s, t, p2.length));
    }
  }
}

TEST(SerializeRoundTripTest, FcIndexAnswersIdentically) {
  const Graph g = testing::MakeRoadGraph(14, 46);
  const FcIndex built = FcIndex::Build(g);
  const FcIndex loaded = ReloadAndCheckBytes(built);

  ASSERT_EQ(loaded.NumNodes(), built.NumNodes());
  // The grid stack is rebuilt from the stored coordinates on Load; it must
  // come back structurally identical, or proximity queries would diverge.
  ASSERT_EQ(loaded.grids().Depth(), built.grids().Depth());

  FcQuery q1(built, FcQueryOptions{.use_proximity = false});
  FcQuery q2(loaded, FcQueryOptions{.use_proximity = false});
  Rng rng(46);
  for (int i = 0; i < 80; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(q2.Distance(s, t), q1.Distance(s, t));
    const PathResult p1 = q1.Path(s, t);
    const PathResult p2 = q2.Path(s, t);
    ASSERT_EQ(p2.length, p1.length);
    EXPECT_EQ(p2.nodes, p1.nodes);
    if (p1.Found()) {
      EXPECT_TRUE(IsValidPath(g, p2.nodes, s, t, p2.length));
    }
  }
}

TEST(SerializeRoundTripTest, HlIndexAnswersIdentically) {
  const Graph g = testing::MakeRoadGraph(14, 47);
  const HlIndex built = HlIndex::Build(g);
  const HlIndex loaded = ReloadAndCheckBytes(built);

  ASSERT_EQ(loaded.NumNodes(), built.NumNodes());
  Rng rng(47);
  for (int i = 0; i < 80; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
    ASSERT_EQ(loaded.Distance(s, t), built.Distance(s, t));
    const PathResult p1 = built.Path(s, t);
    const PathResult p2 = loaded.Path(s, t);
    ASSERT_EQ(p2.length, p1.length);
    EXPECT_EQ(p2.nodes, p1.nodes);  // label parents load back exactly
    if (p1.Found()) {
      EXPECT_TRUE(IsValidPath(g, p2.nodes, s, t, p2.length));
    }
  }
}

// An "AHHL" v1 image — 16-byte labels with hub, parent and distance
// interleaved — written here field by field, must load into the same tables
// and answer identically to the index it was written from.
TEST(SerializeRoundTripTest, HlIndexLoadsVersion1Image) {
  struct V1Label {
    Rank hub;
    NodeId parent;
    Dist dist;
  };
  static_assert(sizeof(V1Label) == 16);
  const auto v1_labels = [](const HlLabelTable& table) {
    std::vector<V1Label> labels;
    for (std::size_t i = 0; i < table.hot.size(); ++i) {
      labels.push_back({table.hot[i].hub, table.parent[i], table.DistAt(i)});
    }
    return labels;
  };
  // The heavy graph's v1 distances above 2^32 - 2 must land in overflow.
  const Graph graphs[] = {testing::MakeRoadGraph(12, 48),
                          testing::MakeHeavyWeightGraph(40, 100, 17)};
  for (const Graph& g : graphs) {
    const HlIndex built = HlIndex::Build(g);
    std::stringstream v1;
    BinaryWriter w(v1);
    w.Magic("AHHL", 1);
    w.Vector(built.hub_of_rank());
    w.Vector(built.in_table().first);
    w.Vector(v1_labels(built.in_table()));
    w.Vector(built.out_table().first);
    w.Vector(v1_labels(built.out_table()));
    w.Pod(built.build_stats().seconds);
    w.Pod<std::uint64_t>(0);  // The two build-statistics slots.
    w.Pod<std::uint64_t>(0);

    const HlIndex loaded = HlIndex::Load(v1);
    EXPECT_EQ(loaded.hub_of_rank(), built.hub_of_rank());
    EXPECT_EQ(loaded.in_table(), built.in_table());
    EXPECT_EQ(loaded.out_table(), built.out_table());
    // Re-saving writes v2, identical to the built index's own image.
    EXPECT_EQ(Bytes(loaded), Bytes(built));
    Rng rng(48);
    for (int i = 0; i < 80; ++i) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
      const NodeId t = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
      ASSERT_EQ(loaded.Distance(s, t), built.Distance(s, t));
      const PathResult p1 = built.Path(s, t);
      const PathResult p2 = loaded.Path(s, t);
      ASSERT_EQ(p2.length, p1.length);
      EXPECT_EQ(p2.nodes, p1.nodes);
    }
  }
}

// Byte positions of one direction's arrays inside an "AHHL" v2 image
// (HlIndex::Save): magic + version, hub order, then per direction the
// length-prefixed offsets, hot entries, parents and overflow entries.
struct HlImageLayout {
  std::size_t first, hot, parent, overflow, end;

  static HlImageLayout At(std::size_t at, const HlLabelTable& table) {
    HlImageLayout l;
    l.first = at + 8;
    l.hot = l.first + table.first.size() * sizeof(std::uint64_t) + 8;
    l.parent = l.hot + table.hot.size() * sizeof(HlEntry) + 8;
    l.overflow = l.parent + table.parent.size() * sizeof(NodeId) + 8;
    l.end = l.overflow + table.overflow.size() * sizeof(HlOverflow);
    return l;
  }
  static HlImageLayout In(const HlIndex& index) {
    return At(5 + 8 + index.NumNodes() * sizeof(NodeId), index.in_table());
  }
  static HlImageLayout Out(const HlIndex& index) {
    return At(In(index).end, index.out_table());
  }
};

template <typename T>
std::string Patched(std::string bytes, std::size_t pos, T value) {
  std::memcpy(bytes.data() + pos, &value, sizeof(T));
  return bytes;
}

// A flipped byte in any table must fail Load with an error naming the
// check, never load into an index that reads out of bounds at query time.
TEST(SerializeRoundTripTest, CorruptHlImagesAreRejected) {
  const Graph g = testing::MakeRoadGraph(10, 49);
  const HlIndex hl = HlIndex::Build(g);
  const std::string image = Bytes(hl);
  const HlImageLayout in = HlImageLayout::In(hl);
  const HlImageLayout out = HlImageLayout::Out(hl);
  ASSERT_EQ(out.end + 8 + 8 + 8, image.size()) << "layout drifted from Save";

  const HlLabelTable& table = hl.in_table();
  const NodeId n = static_cast<NodeId>(hl.NumNodes());
  NodeId multi = 0;  // A node with at least two in-labels.
  while (table.first[multi + 1] - table.first[multi] < 2) ++multi;
  const std::uint64_t second = table.first[multi] + 1;
  const std::uint64_t mid_offset = table.first[n / 2];

  struct Case {
    std::string bytes;
    std::string check;
  };
  const Case cases[] = {
      {Patched(image, in.first + (n / 2) * 8, mid_offset ^ (1ull << 40)),
       "offsets not monotone"},
      {Patched(image, out.first + n * 8, hl.out_table().first[n] + 1),
       "offsets do not end at the label count"},
      {Patched(image, in.hot, Rank{n}), "hub rank out of range"},
      {Patched(image, in.hot + second * sizeof(HlEntry),
               table.hot[second - 1].hub),
       "hub ranks not strictly ascending within a label"},
      {Patched(image, out.parent, NodeId{n}), "parent out of range"},
      {Patched(image, in.hot + sizeof(Rank), kHlDistOverflow),
       "sentinel label without an overflow entry"},
      {Patched(image, 5 + 8, hl.hub_of_rank()[1]),
       "hub order is not a permutation"},
  };
  for (const Case& c : cases) {
    std::stringstream stream(c.bytes);
    try {
      HlIndex::Load(stream);
      ADD_FAILURE() << "corrupt image loaded; want: " << c.check;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.check), std::string::npos)
          << "got: " << e.what() << "; want: " << c.check;
    }
  }
}

// The overflow list is validated too: sorted, in range, and pointing only
// at sentinel slots.
TEST(SerializeRoundTripTest, CorruptHlOverflowEntriesAreRejected) {
  const Graph g = testing::MakeHeavyWeightGraph(40, 100, 17);
  const HlIndex hl = HlIndex::Build(g);
  const HlLabelTable& table = hl.in_table();
  ASSERT_GE(table.overflow.size(), 2u);
  const HlIndex loaded = ReloadAndCheckBytes(hl);
  EXPECT_EQ(loaded.in_table(), table);
  EXPECT_EQ(loaded.out_table(), hl.out_table());

  const std::string image = Bytes(hl);
  const std::size_t at = HlImageLayout::In(hl).overflow;
  std::uint64_t plain = 0;  // A label position that is not a sentinel.
  while (table.hot[plain].dist == kHlDistOverflow) ++plain;
  const HlOverflow first = table.overflow[0];
  const HlOverflow second = table.overflow[1];

  struct Case {
    std::string bytes;
    std::string check;
  };
  const Case cases[] = {
      {Patched(image, at, HlOverflow{second.pos, second.dist}),
       "overflow entries not sorted"},
      {Patched(image, at, HlOverflow{table.hot.size(), first.dist}),
       "overflow position out of range"},
      {Patched(image, at, HlOverflow{plain, first.dist}),
       "overflow entry points at a non-sentinel label"},
      {Patched(image, at, HlOverflow{first.pos, 5}),
       "overflow distance out of range"},
  };
  for (const Case& c : cases) {
    std::stringstream stream(c.bytes);
    try {
      HlIndex::Load(stream);
      ADD_FAILURE() << "corrupt image loaded; want: " << c.check;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.check), std::string::npos)
          << "got: " << e.what() << "; want: " << c.check;
    }
  }
}

// Every factory backend must be explicitly accounted for here, so adding a
// backend forces a recorded serialization decision (round-trip test above,
// or a deliberate "search-only, no artifact" entry). tools/lint_invariants.py
// enforces that each name appears in this file as a quoted literal; this
// test enforces that the table below tracks the factory exactly.
TEST(SerializeRoundTripTest, EveryBackendHasASerializationDecision) {
  // name -> has a persisted artifact exercised by a round-trip test above.
  const std::map<std::string, bool> decisions = {
      {"dijkstra", false},    // search-only: rebuilt from the Graph artifact
      {"bidijkstra", false},  // search-only: rebuilt from the Graph artifact
      {"ch", true},           // ChIndexAnswersIdentically
      {"alt", false},         // landmarks recomputed deterministically on load
      {"silc", false},        // tiles recomputed deterministically on load
      {"fc", true},           // FcIndexAnswersIdentically
      {"ah", true},           // AhIndexAnswersIdentically
      {"hl", true},           // HlIndexAnswersIdentically
  };
  const std::vector<std::string>& names = OracleNames();
  ASSERT_EQ(decisions.size(), names.size())
      << "backend added or removed without updating the serialization table";
  for (const std::string& name : names) {
    EXPECT_TRUE(decisions.count(name))
        << "backend \"" << name << "\" has no serialization decision";
  }
}

TEST(SerializeRoundTripTest, TruncatedStreamsAreRejected) {
  const Graph g = testing::MakeRandomGraph(30, 90, 45);
  const ChIndex ch = ChIndex::Build(g);
  const FcIndex fc = FcIndex::Build(g);
  const HlIndex hl = HlIndex::Build(g);

  struct Case {
    std::string bytes;
    std::function<void(std::istream&)> load;
  };
  const Case cases[] = {
      {Bytes(g), [](std::istream& in) { Graph::Load(in); }},
      {Bytes(ch), [](std::istream& in) { ChIndex::Load(in); }},
      {Bytes(fc), [](std::istream& in) { FcIndex::Load(in); }},
      {Bytes(hl), [](std::istream& in) { HlIndex::Load(in); }},
  };
  for (const Case& c : cases) {
    // Chop the stream at several depths; every prefix must throw, never
    // crash or return a half-initialized artifact.
    for (std::size_t keep :
         {std::size_t{0}, std::size_t{3}, c.bytes.size() / 2,
          c.bytes.size() - 1}) {
      std::stringstream in(c.bytes.substr(0, keep));
      EXPECT_THROW(c.load(in), std::runtime_error) << keep;
    }
  }
}

}  // namespace
}  // namespace ah
