// Dataset catalog mirroring Table 2 of the paper.
//
// The paper's ten datasets are parts of the DIMACS US road network. The
// build cannot download them, so we synthesize stand-ins with the same names
// at a configurable node-count scale, and every bench keys its rows on the
// paper's dataset identifiers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace ah {

struct DatasetSpec {
  std::string name;         ///< Paper's identifier (DE, NH, ..., US).
  std::string region;       ///< "Corresponding Region" column of Table 2.
  std::size_t paper_nodes;  ///< Node count reported in Table 2.
  std::size_t paper_arcs;   ///< Edge count reported in Table 2.
};

/// The ten datasets of Table 2, smallest first.
const std::vector<DatasetSpec>& PaperDatasets();

/// Looks up a dataset spec by name; std::nullopt if unknown.
std::optional<DatasetSpec> FindDataset(const std::string& name);

/// Generates the synthetic stand-in for `spec` with ~paper_nodes*scale nodes.
/// Deterministic: the seed is derived from the dataset name.
Graph MakeScaledDataset(const DatasetSpec& spec, double scale);

/// Bench scale taken from the AH_BENCH_SCALE environment variable:
/// "tiny" = 1/256, "small" = 1/64, "default"/unset = 1/16, "large" = 1/4,
/// "full" = 1, or any positive decimal fraction. Values are clamped to
/// (0, 1].
double BenchScaleFromEnv();

/// Number of leading catalog datasets a bench should cover, from the
/// AH_BENCH_DATASETS environment variable (default `fallback`, clamped to
/// [1, 10]). Benches use the prefix of PaperDatasets(), i.e. the smaller
/// networks first, exactly as the paper scales its figures up.
std::size_t BenchDatasetCountFromEnv(std::size_t fallback);

}  // namespace ah
