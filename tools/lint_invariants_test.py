#!/usr/bin/env python3
"""Self-test for tools/lint_invariants.py.

Builds throwaway repo trees containing known-bad snippets and asserts the
linter catches each one (and honours each suppression). Runs as the
`lint_invariants_selftest` ctest entry and in the CI static-analysis job.
"""

import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lint_invariants  # noqa: E402

# A factory file good enough for factory_backends(): two backends, kNames
# and the dispatch chain agreeing.
FACTORY_OK = """\
const std::vector<std::string>& OracleNames() {
  static const std::vector<std::string> kNames = {"dijkstra", "ch"};
  return kNames;
}
std::unique_ptr<DistanceOracle> MakeOracle(const std::string& name) {
  if (name == "dijkstra") return MakeDijkstra();
  if (name == "ch") return MakeCh();
  throw std::invalid_argument(name);
}
"""


class LintInvariantsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, text):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def findings(self, check):
        return lint_invariants.run(self.root, checks={check})

    def checks_of(self, findings):
        return [f.check for f in findings]

    # -- rng-discipline -----------------------------------------------------

    def test_seeded_rng_in_build_path_is_caught(self):
        self.write(
            "src/ch/order.cc",
            "void Shuffle() {\n"
            "  std::mt19937 gen(std::random_device{}());\n"
            "  int t = rand() % 7;\n"
            "}\n",
        )
        found = self.findings("rng-discipline")
        # mt19937, random_device, and rand() each flagged.
        self.assertEqual(self.checks_of(found), ["rng-discipline"] * 3)
        self.assertTrue(all(f.line == 2 or f.line == 3 for f in found))

    def test_time_seed_is_caught(self):
        self.write("bench/fig.cc", "auto seed = time(nullptr);\n")
        self.assertEqual(len(self.findings("rng-discipline")), 1)

    def test_rng_header_itself_is_exempt(self):
        self.write("src/util/rng.h", "// mentions std::mt19937 by name\n")
        # Comment-stripping also keeps pure-comment mentions elsewhere quiet.
        self.write("src/ch/doc.h", "// unlike std::mt19937, SplitMix64 ...\n")
        self.assertEqual(self.findings("rng-discipline"), [])

    def test_rng_suppression_is_honoured(self):
        self.write(
            "src/gen/noise.cc",
            "// lint:allow-rng comparing against libc rand for a figure\n"
            "int x = rand();\n",
        )
        self.assertEqual(self.findings("rng-discipline"), [])

    # -- ordered-commit -----------------------------------------------------

    def test_unordered_iteration_in_build_path_is_caught(self):
        self.write(
            "src/graph/merge.cc",
            "void Emit(Writer& w) {\n"
            "  std::unordered_map<int, int> degree;\n"
            "  for (const auto& [node, d] : degree) w.U32(d);\n"
            "}\n",
        )
        found = self.findings("ordered-commit")
        self.assertEqual(self.checks_of(found), ["ordered-commit"])
        self.assertEqual(found[0].line, 3)

    def test_ordered_commit_suppression_is_honoured(self):
        self.write(
            "src/graph/merge.cc",
            "std::unordered_set<int> seen;\n"
            "// lint:ordered-commit result re-sorted before emission\n"
            "for (int v : seen) out.push_back(v);\n",
        )
        self.assertEqual(self.findings("ordered-commit"), [])

    def test_server_runtime_paths_are_out_of_scope(self):
        self.write(
            "src/server/cache.cc",
            "std::unordered_map<int, int> table;\n"
            "for (const auto& [k, v] : table) Touch(k);\n",
        )
        self.assertEqual(self.findings("ordered-commit"), [])

    def test_unordered_member_iterated_in_companion_cc_is_caught(self):
        # The incremental-rebuild commit shape: an annotated unordered
        # member declared in the header, drained by the .cc worker into
        # state every backend is rebuilt from.
        self.write(
            "src/api/index_registry.h",
            "class IndexRegistry {\n"
            "  std::unordered_map<std::uint64_t, WeightDelta> pending_\n"
            "      AH_GUARDED_BY(mu_);\n"
            "};\n",
        )
        self.write(
            "src/api/index_registry.cc",
            "void IndexRegistry::WorkerLoop() {\n"
            "  for (auto& [key, delta] : pending_) deltas.push_back(delta);\n"
            "}\n",
        )
        found = self.findings("ordered-commit")
        self.assertEqual(self.checks_of(found), ["ordered-commit"])
        self.assertTrue(found[0].path.name.endswith(".cc"))
        self.assertEqual(found[0].line, 2)

    def test_suppressed_member_drain_in_companion_cc_passes(self):
        self.write(
            "src/api/index_registry.h",
            "std::unordered_map<std::uint64_t, WeightDelta> pending_\n"
            "    AH_GUARDED_BY(mu_);\n",
        )
        self.write(
            "src/api/index_registry.cc",
            "// lint:ordered-commit drained set is sorted canonically below\n"
            "for (auto& [key, delta] : pending_) deltas.push_back(delta);\n"
            "std::sort(deltas.begin(), deltas.end(), ByArc);\n",
        )
        self.assertEqual(self.findings("ordered-commit"), [])

    def test_ordered_container_iteration_is_fine(self):
        self.write(
            "src/graph/merge.cc",
            "std::map<int, int> degree;\n"
            "for (const auto& [node, d] : degree) w.U32(d);\n",
        )
        self.assertEqual(self.findings("ordered-commit"), [])

    # -- magic-unique -------------------------------------------------------

    def test_duplicate_magic_tag_is_caught(self):
        self.write("src/graph/graph.cc", 'w.Magic("AHGR", 1);\n')
        self.write("src/hl/hl_index.cc", 'w.Magic("AHGR", 2);\n')
        found = self.findings("magic-unique")
        self.assertEqual(self.checks_of(found), ["magic-unique"])
        self.assertIn("AHGR", found[0].message)

    def test_unique_tags_pass(self):
        self.write(
            "src/graph/graph.cc",
            'w.Magic("AHGR", 1);\nr.Magic("AHGR", 1);\n',
        )
        self.write("src/hl/hl_index.cc", 'w.Magic("AHHL", 2);\n')
        self.assertEqual(self.findings("magic-unique"), [])

    # -- backend-coverage ---------------------------------------------------

    def coverage_tree(self, serialize_body):
        self.write("src/api/distance_oracle.cc", FACTORY_OK)
        self.write(
            "tests/conformance_test.cc",
            "for (const auto& name : OracleNames()) Check(name);\n",
        )
        self.write("tests/serialize_roundtrip_test.cc", serialize_body)
        self.write(
            "bench/fig_throughput.cc",
            "for (const auto& name : OracleNames()) Bench(name);\n",
        )

    def test_backend_missing_from_serialize_suite_is_caught(self):
        self.coverage_tree('CheckRoundTrip("ch");\n')  # "dijkstra" absent
        found = self.findings("backend-coverage")
        self.assertEqual(self.checks_of(found), ["backend-coverage"])
        self.assertIn('"dijkstra"', found[0].message)

    def test_sweeping_does_not_satisfy_the_serialize_suite(self):
        # OracleNames() in the round-trip suite must NOT count as coverage:
        # the whole point is an explicit per-backend decision.
        self.coverage_tree("for (const auto& n : OracleNames()) Check(n);\n")
        self.assertEqual(len(self.findings("backend-coverage")), 2)

    def test_full_coverage_passes(self):
        self.coverage_tree('{"dijkstra", false}, {"ch", true},\n')
        self.assertEqual(self.findings("backend-coverage"), [])

    def test_factory_name_dispatch_mismatch_is_caught(self):
        self.write(
            "src/api/distance_oracle.cc",
            FACTORY_OK.replace('if (name == "ch") return MakeCh();\n', ""),
        )
        found = self.findings("backend-coverage")
        self.assertTrue(any("dispatch" in f.message for f in found))

    # -- harness ------------------------------------------------------------

    def test_main_reports_and_exits_nonzero_on_violation(self):
        self.write("src/ch/order.cc", "int x = rand();\n")
        report = self.root / "report.txt"
        code = lint_invariants.main(
            ["--root", str(self.root), "--report", str(report)]
        )
        self.assertEqual(code, 1)
        self.assertIn("rng-discipline", report.read_text())

    def test_main_exits_zero_on_clean_tree(self):
        self.write("src/api/distance_oracle.cc", FACTORY_OK)
        self.write(
            "tests/conformance_test.cc",
            "for (const auto& name : OracleNames()) Check(name);\n",
        )
        self.write(
            "tests/serialize_roundtrip_test.cc",
            '{"dijkstra", false}, {"ch", true},\n',
        )
        self.write("bench/b.cc", 'Bench("dijkstra"); Bench("ch");\n')
        self.assertEqual(lint_invariants.main(["--root", str(self.root)]), 0)


if __name__ == "__main__":
    unittest.main()
