#!/usr/bin/env python3
"""Repo-invariant linter: determinism and serialization rules no compiler
checks.

The index builds in this repo promise bit-identical output at any thread
count, and the serialization layer promises that every on-disk artifact is
self-describing and every backend is exercised by the conformance/round-trip
harness. Those invariants live in review comments unless something enforces
them; this linter is that something. It runs as a ctest entry
(`lint_invariants`) and in the CI static-analysis job.

Checks
------
rng-discipline
    Build/bench code must draw randomness only from src/util/rng.h
    (seeded SplitMix64). `rand()`, `srand()`, `std::random_device`, the
    std engines, and time-based seeds make index builds irreproducible.
    Suppression: `// lint:allow-rng <why>` on the line or just above.

ordered-commit
    Iterating an unordered_{map,set} and committing the visited order to
    anything observable (output vectors, serialized bytes, applied deltas)
    breaks bit-identical builds. Every range-for / .begin() loop over an
    unordered container declared in the same file — or, for a .cc file, in
    its companion header (class members like the registry's pending-delta
    map: the incremental-rebuild commit path drains it into the graph every
    backend is then rebuilt from) — inside a build or serialization path
    must carry `// lint:ordered-commit <why>` on the line or within the
    three lines above, justifying why the commit is order-independent (or
    where it is canonicalized).

magic-unique
    Every serialized artifact writes a 4-byte magic tag via
    util/serialize.h `Magic("XXXX", version)`. A tag reused by two
    different artifact files would let one artifact parse as another.

backend-coverage
    Every backend name registered in the MakeOracle factory
    (src/api/distance_oracle.cc) must (a) equal the OracleNames() list,
    (b) be swept by tests/conformance_test.cc, (c) be explicitly
    accounted for in tests/serialize_roundtrip_test.cc (as a quoted
    string — search-only backends must be listed as artifact-free on
    purpose, not forgotten), and (d) be covered by the bench tables.

Exit status: 0 when clean, 1 on violations, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Directories whose files construct or serialize indexes: output produced
# here must be bit-identical across runs and thread counts. src/server is
# deliberately absent (caches and connection tables iterate hash maps for
# runtime bookkeeping, never for committed output), as is src/util
# (containers only; no index output).
BUILD_PATH_DIRS = (
    "src/alt",
    "src/api",
    "src/arterial",
    "src/ch",
    "src/core",
    "src/fc",
    "src/gen",
    "src/geo",
    "src/graph",
    "src/hgrid",
    "src/hier",
    "src/hl",
    "src/perturb",
    "src/routing",
    "src/silc",
    "src/workload",
)

# RNG discipline applies to everything that builds indexes or reports
# numbers: src, bench, and examples alike.
RNG_SCAN_DIRS = ("src", "bench", "examples")
RNG_ALLOWED_FILE = "src/util/rng.h"

RNG_FORBIDDEN = [
    (re.compile(r"\brand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bminstd_rand0?\b"), "std::minstd_rand"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\branlux(?:24|48)\b"), "std::ranlux"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"), "time(...) seed"),
]

MAGIC_RE = re.compile(r"\.Magic\(\"([A-Z0-9]{2,8})\"")

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{}()]*?>\s+(\w+)\s*(?:;|=|\{|\()"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;:)]*:\s*([^)]+)\)")
ITER_FOR_RE = re.compile(r"\bfor\s*\([^;]*=\s*(\w+)\s*\.\s*begin\s*\(")

SUPPRESS_RNG = "lint:allow-rng"
SUPPRESS_ORDERED = "lint:ordered-commit"

SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}


class Finding:
    def __init__(self, check: str, path: Path, line: int, message: str):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def format(self, root: Path) -> str:
        try:
            rel = self.path.relative_to(root)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: [{self.check}] {self.message}"


def source_files(root: Path, subdirs) -> list[Path]:
    files: list[Path] = []
    for sub in subdirs:
        base = root / sub
        if not base.exists():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                files.append(path)
    return files


def has_suppression(lines: list[str], idx: int, token: str, span: int = 3) -> bool:
    """True when `token` appears on line idx or within `span` lines above."""
    lo = max(0, idx - span)
    return any(token in lines[i] for i in range(lo, idx + 1))


def check_rng_discipline(root: Path) -> list[Finding]:
    findings = []
    for path in source_files(root, RNG_SCAN_DIRS):
        if path == root / RNG_ALLOWED_FILE:
            continue
        lines = path.read_text(errors="replace").splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            for pattern, label in RNG_FORBIDDEN:
                if pattern.search(code) and not has_suppression(
                    lines, i, SUPPRESS_RNG
                ):
                    findings.append(
                        Finding(
                            "rng-discipline",
                            path,
                            i + 1,
                            f"{label} outside {RNG_ALLOWED_FILE}; use ah::Rng "
                            f"(seeded, reproducible) or add "
                            f"`// {SUPPRESS_RNG} <why>`",
                        )
                    )
    return findings


def unordered_decl_names(text: str) -> set[str]:
    """Identifiers declared in this file with an unordered container type.

    Declarations may wrap across lines; collapse whitespace first so the
    regex sees one logical declaration per statement. Thread-safety
    annotations (`AH_GUARDED_BY(mu_)` and friends) sit between the member
    name and the `;` — strip them so annotated members still parse.
    """
    collapsed = re.sub(r"\s+", " ", text)
    collapsed = re.sub(r"\bAH_[A-Z_]+\([^()]*\)", "", collapsed)
    return set(UNORDERED_DECL_RE.findall(collapsed))


def check_ordered_commit(root: Path) -> list[Finding]:
    findings = []
    for path in source_files(root, BUILD_PATH_DIRS):
        text = path.read_text(errors="replace")
        names = unordered_decl_names(text)
        # A .cc iterating an unordered member declared in its companion
        # header is the same hazard — that is exactly the shape of the
        # incremental-rebuild commit path (the registry worker drains the
        # header-declared pending-delta map into the next epoch's graph).
        if path.suffix in (".cc", ".cpp"):
            for header_suffix in (".h", ".hpp"):
                header = path.with_suffix(header_suffix)
                if header.exists():
                    names |= unordered_decl_names(
                        header.read_text(errors="replace")
                    )
        if not names:
            continue
        lines = text.splitlines()
        for i, line in enumerate(lines):
            code = line.split("//", 1)[0]
            iterated = None
            m = RANGE_FOR_RE.search(code)
            if m:
                seq = m.group(1).strip()
                base = re.split(r"[.\->\[(]", seq)[0].strip().lstrip("*&")
                if base in names:
                    iterated = base
            if iterated is None:
                m = ITER_FOR_RE.search(code)
                if m and m.group(1) in names:
                    iterated = m.group(1)
            if iterated is not None and not has_suppression(
                lines, i, SUPPRESS_ORDERED
            ):
                findings.append(
                    Finding(
                        "ordered-commit",
                        path,
                        i + 1,
                        f"iteration over unordered container '{iterated}' in a "
                        f"build/serialization path; sort before committing or "
                        f"justify with `// {SUPPRESS_ORDERED} <why>`",
                    )
                )
    return findings


def check_magic_unique(root: Path) -> list[Finding]:
    findings = []
    tags: dict[str, list[tuple[Path, int]]] = {}
    for path in source_files(root, ("src",)):
        for i, line in enumerate(path.read_text(errors="replace").splitlines()):
            for tag in MAGIC_RE.findall(line):
                tags.setdefault(tag, []).append((path, i + 1))
    for tag, sites in sorted(tags.items()):
        files = sorted({p for p, _ in sites})
        if len(files) > 1:
            where = ", ".join(str(f.relative_to(root)) for f in files)
            path, line = sites[0]
            findings.append(
                Finding(
                    "magic-unique",
                    path,
                    line,
                    f'magic tag "{tag}" written by more than one artifact: '
                    f"{where}",
                )
            )
    return findings


def factory_backends(root: Path) -> tuple[list[str], list[Finding]]:
    """Backend names from the oracle factory, cross-checked two ways."""
    findings: list[Finding] = []
    factory = root / "src/api/distance_oracle.cc"
    if not factory.exists():
        findings.append(
            Finding("backend-coverage", factory, 1, "factory file missing")
        )
        return [], findings
    text = factory.read_text(errors="replace")
    names_match = re.search(r"kNames\s*=\s*\{([^}]*)\}", text)
    canonical = re.findall(r'"(\w+)"', names_match.group(1)) if names_match else []
    dispatched = re.findall(r'if\s*\(name\s*==\s*"(\w+)"\)', text)
    if not canonical:
        findings.append(
            Finding(
                "backend-coverage", factory, 1, "could not parse kNames list"
            )
        )
    if set(canonical) != set(dispatched):
        findings.append(
            Finding(
                "backend-coverage",
                factory,
                1,
                f"OracleNames() {sorted(canonical)} != MakeOracle dispatch "
                f"{sorted(dispatched)}",
            )
        )
    return canonical, findings


def check_backend_coverage(root: Path) -> list[Finding]:
    backends, findings = factory_backends(root)
    if not backends:
        return findings

    # (relative path or directory, sweep_ok): sweep_ok targets may cover all
    # backends by iterating OracleNames(); the serialize round-trip suite
    # must name each backend explicitly so "has no artifact" is always a
    # recorded decision, never an omission.
    targets = [
        ("tests/conformance_test.cc", True),
        ("tests/serialize_roundtrip_test.cc", False),
        ("bench", True),
    ]
    for target, sweep_ok in targets:
        path = root / target
        if path.is_dir():
            texts = [
                (p, p.read_text(errors="replace"))
                for p in source_files(root, (target,))
            ]
        elif path.exists():
            texts = [(path, path.read_text(errors="replace"))]
        else:
            findings.append(
                Finding("backend-coverage", path, 1, "coverage target missing")
            )
            continue
        swept = sweep_ok and any("OracleNames()" in t for _, t in texts)
        for name in backends:
            present = any(f'"{name}"' in t for _, t in texts)
            if not (present or swept):
                findings.append(
                    Finding(
                        "backend-coverage",
                        texts[0][0] if len(texts) == 1 else path,
                        1,
                        f'backend "{name}" registered in the factory but not '
                        f"covered by {target}",
                    )
                )
    return findings


CHECKS = {
    "rng-discipline": check_rng_discipline,
    "ordered-commit": check_ordered_commit,
    "magic-unique": check_magic_unique,
    "backend-coverage": check_backend_coverage,
}


def run(root: Path, checks=None) -> list[Finding]:
    findings: list[Finding] = []
    for name, fn in CHECKS.items():
        if checks and name not in checks:
            continue
        findings.extend(fn(root))
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the tree containing this script)",
    )
    parser.add_argument(
        "--check",
        action="append",
        choices=sorted(CHECKS),
        help="run only the named check (repeatable; default: all)",
    )
    parser.add_argument(
        "--report",
        type=Path,
        help="also write the findings to this file (CI artifact)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"lint_invariants: {root} has no src/ directory", file=sys.stderr)
        return 2

    findings = run(root, args.check)
    lines = [f.format(root) for f in findings]
    summary = (
        f"lint_invariants: {len(findings)} violation(s) in "
        f"{len({f.path for f in findings})} file(s)"
        if findings
        else "lint_invariants: clean"
    )
    report = "\n".join(lines + [summary])
    print(report)
    if args.report:
        args.report.write_text(report + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
