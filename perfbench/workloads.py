"""Workload instances, made from the workload seed, and one pass over each workload.

Importing this module binds it to the package source of the checkout it sits
in (``<checkout>/src``); it never falls back to an installed copy.  The
package sees only the generated instances and construction seeds derived
from the workload seed.  README.md in this directory says why each workload
exists and which regime it runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, ContextManager

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


class SourceMissing(RuntimeError):
    """The checkout holds no package source to measure."""


def _load_package():
    init = SRC / "shortcutforge" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    import shortcutforge

    if Path(shortcutforge.__file__).resolve() != init.resolve():
        raise SourceMissing(f"imported {shortcutforge.__file__}, expected {init}")
    return shortcutforge


sf = _load_package()
from shortcutforge import cli  # noqa: E402  (needs the path set above)

EPS = Fraction(1, 4)


def derive(seed: int, label: str) -> int:
    """Instance or construction seed for ``label`` under the workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class ShortcutCase:
    label: str
    graph: object  # shortcutforge.Digraph
    d: int
    seed: int

    def construct(self):
        return sf.build_shortcuts(self.graph, self.d, seed=self.seed)

    def verify(self, h):
        return sf.verify_shortcut(self.graph, h, self.d, instance=self.label)

    def ratio(self, report) -> float:
        return report.achieved_diameter / self.d

    def empty_ok(self) -> bool:
        return self.verify(()).ok


@dataclass(frozen=True)
class HopsetCase:
    label: str
    graph: object  # shortcutforge.WeightedDigraph
    beta: int
    seed: int
    construction: str  # public name: build_hopset or hopset_small_hop
    eps: Fraction = EPS

    def construct(self):
        build = getattr(sf, self.construction)
        return build(self.graph, self.beta, self.eps, seed=self.seed)

    def verify(self, h):
        return sf.verify_hopset(self.graph, h, self.beta, self.eps, instance=self.label)

    def ratio(self, report) -> float:
        return float(report.achieved_stretch / (1 + self.eps))

    def empty_ok(self) -> bool:
        return self.verify(()).ok


def weighted_grid(n: int, w_max: int, seed: int):
    """grid_dag with seeded weights in [1, w_max]: hop depth fixed by the grid."""
    g = sf.generate(sf.GenSpec("grid_dag", n))
    edges = sorted(g.edges)
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = rng.integers(1, w_max + 1, size=len(edges))
    return sf.WeightedDigraph(n, ((u, v, int(w)) for (u, v), w in zip(edges, weights)))


def shortcut_random_cases(seed: int) -> list[ShortcutCase]:
    # D = 8: at n = 800 the construction is the same for every D in [3, 10]
    # (ell and p both cap), and the empty set's diameter is above 8.
    # Density 3 keeps the closure small next to the peeling and wiring work.
    # Four graphs average out how much each one's work varies with the seed.
    return [
        ShortcutCase(
            f"random_dag#{i}",
            sf.generate(
                sf.GenSpec("random_dag", 800, density=3.0, seed=derive(seed, f"random/{i}"))
            ),
            8,
            derive(seed, f"random/{i}/build"),
        )
        for i in range(4)
    ]


def shortcut_deep_cases(seed: int) -> list[ShortcutCase]:
    base = sf.generate(sf.GenSpec("random_dag", 300, density=2.0, seed=derive(seed, "deep/sub")))
    split, _ = sf.subdivide(base, 3)
    # D = 11 = ceil(1225^(1/3)) keeps the grid on the small-diameter route.
    return [
        ShortcutCase("grid_dag", sf.generate(sf.GenSpec("grid_dag", 1225)), 11,
                     derive(seed, "deep/grid/build")),
        ShortcutCase("subdivide", split, 16, derive(seed, "deep/sub/build")),
    ]


def hopset_cases(seed: int) -> list[HopsetCase]:
    return [
        *(
            HopsetCase(
                f"weighted_random#{i}",
                sf.generate(sf.GenSpec("weighted_random", 220, density=2.2, W=100,
                                       seed=derive(seed, f"hopset/random/{i}"))),
                12,
                derive(seed, f"hopset/random/{i}/build"),
                "build_hopset",
            )
            for i in range(3)
        ),
        HopsetCase(
            "weighted_grid",
            weighted_grid(300, 1000, derive(seed, "hopset/grid")),
            24,
            derive(seed, "hopset/grid/build"),
            "hopset_small_hop",
        ),
    ]


@dataclass(frozen=True)
class CliChain:
    """gen -> shortcut|hopset -> verify through cli.main, on bare file names."""

    label: str
    spec: object  # shortcutforge.GenSpec
    kind: str  # "shortcut" or "hopset"
    target: tuple[str, ...]  # shared by the build and verify steps
    extra: tuple[str, ...]  # build-only flags
    seed: int

    def files(self) -> tuple[str, str, str]:
        return f"{self.label}.graph", f"{self.label}.edges", f"{self.label}.json"

    def steps(self) -> list[tuple[str, list[str], tuple[str, ...]]]:
        """(phase, argv, files read) per step, in order."""
        graph, edges, report = self.files()
        s = self.spec
        gen = ["gen", "--family", s.family, "--n", str(s.n), "--density", str(s.density),
               "--seed", str(s.seed), "--out", graph]
        if s.W is not None:
            gen[-2:-2] = ["--W", str(s.W)]
        build = [self.kind, "--input", graph, *self.target, "--seed", str(self.seed),
                 *self.extra, "--out", edges]
        verify = ["verify", "--graph", graph, "--edges", edges, "--mode", self.kind,
                  *self.target, "--json", report]
        return [("gen", gen, ()), ("build", build, (graph,)),
                ("verify", verify, (graph, edges))]

    def empty_ok(self) -> bool:
        g = sf.generate(self.spec)
        if self.kind == "shortcut":
            return sf.verify_shortcut(g, (), int(self.target[1])).ok
        return sf.verify_hopset(g, (), int(self.target[1]), Fraction(self.target[3])).ok

    def ratio(self, report: dict) -> float:
        if self.kind == "shortcut":
            return report["achieved_diameter"] / int(self.target[1])
        return float(Fraction(report["achieved_stretch"]) / (1 + Fraction(self.target[3])))


def cli_chains(seed: int) -> list[CliChain]:
    # Folklore at p = min(1, 3 ln n / D) = 1 writes the whole closure, and the
    # large-hop hopset at n = 300 keeps every vertex: both files are large, so
    # parsing and formatting are a real share of the chain.
    return [
        CliChain("shortcut",
                 sf.GenSpec("random_dag", 1000, density=5.0, seed=derive(seed, "cli/dag")),
                 "shortcut", ("--diameter", "8"), ("--mode", "folklore"),
                 derive(seed, "cli/dag/build")),
        CliChain("hopset",
                 sf.GenSpec("weighted_random", 300, density=2.2, W=100,
                            seed=derive(seed, "cli/weighted")),
                 "hopset", ("--beta", "12", "--eps", str(EPS)), (),
                 derive(seed, "cli/weighted/build")),
    ]


# ---------------------------------------------------------------------------
# One pass over a workload's instance set


@dataclass
class Pass:
    solve_s: float = 0.0
    build_s: float = 0.0
    verify_s: float = 0.0
    edges_total: int = 0
    ratio_max: float = 0.0
    diameter_max: int | None = None
    stretch_max: Fraction | None = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    bytes_read: int = 0
    bytes_written: int = 0
    digest: str | None = None

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {why}")

    def achieved(self, diameter, stretch) -> None:
        if diameter is not None:
            self.diameter_max = max(self.diameter_max or 0, int(diameter))
        if stretch is not None:
            stretch = Fraction(stretch)
            self.stretch_max = max(self.stretch_max or stretch, stretch)


Phase = Callable[[str], ContextManager]


def no_phase(name: str) -> ContextManager:
    return contextlib.nullcontext()


def run_cases(cases: list, phase: Phase = no_phase) -> Pass:
    """Build then verify each instance in turn; a failure is counted, never dropped."""
    p = Pass()
    start = perf_counter()
    for case in cases:
        p.attempted += 1
        try:
            with phase("bench.build"):
                t0 = perf_counter()
                h = case.construct()
                t1 = perf_counter()
            with phase("bench.verify"):
                t2 = perf_counter()
                report = case.verify(h)
                t3 = perf_counter()
        except Exception as err:  # noqa: BLE001  (a raising construction is a failed instance)
            p.fail(case.label, f"{type(err).__name__}: {err}")
            continue
        p.build_s += t1 - t0
        p.verify_s += t3 - t2
        p.edges_total += len(h)
        p.achieved(report.achieved_diameter, report.achieved_stretch)
        p.ratio_max = max(p.ratio_max, case.ratio(report))
        if not report.ok:
            p.fail(case.label, "verification failed: " + ", ".join(
                f"{c.name} witness={c.witness}" for c in report.failures()))
    p.solve_s = perf_counter() - start
    return p


@dataclass
class CliState:
    workdir: Path
    chains: list[CliChain]
    expected: dict[str, object]  # chain label -> graph the gen step must write
    passes: int = 0

    def pass_dir(self) -> Path:
        """A fresh directory for the next pass, so no step overwrites a file.

        On ext4, rewriting a file through truncation forces its data to disk
        when it is closed, and the timing would then measure the disk.
        """
        self.passes += 1
        d = self.workdir / f"pass{self.passes}"
        d.mkdir()
        return d


def _edge_rows(path: Path) -> int:
    with path.open() as fh:
        for line in fh:
            body = line.split("#", 1)[0].split()
            if body:
                return int(body[1])
    raise ValueError(f"{path.name}: no header line")


def run_cli(state: CliState, phase: Phase = no_phase) -> Pass:
    """Each chain's steps in order; a non-zero exit fails the chain.

    solve_s sums the steps, so the checks between them are not timed.
    """
    p = Pass()
    sha = hashlib.sha256()
    here = os.getcwd()
    os.chdir(state.pass_dir())
    try:
        for chain in state.chains:
            p.attempted += 1
            ok = True
            for stage, argv, reads in chain.steps():
                out = io.StringIO()
                with phase(f"bench.{stage}"), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(out):
                    t0 = perf_counter()
                    try:
                        code = cli.main(argv)
                    except Exception as err:  # noqa: BLE001  (counted as a failed step)
                        code = f"raised {type(err).__name__}: {err}"
                    took = perf_counter() - t0
                p.solve_s += took
                if stage == "build":
                    p.build_s += took
                elif stage == "verify":
                    p.verify_s += took
                if code != 0:
                    p.fail(chain.label, f"`{' '.join(argv)}` exited {code}: "
                           + out.getvalue().strip()[-300:])
                    ok = False
                    break
                p.bytes_read += sum(os.path.getsize(f) for f in reads)
                p.bytes_written += os.path.getsize(argv[-1])
            if not ok:
                continue
            graph, edges, report_file = (Path(f) for f in chain.files())
            try:
                written = sf.load_edge_list(graph.read_text()).graph
                report = json.loads(report_file.read_text())
                p.edges_total += _edge_rows(edges)
                p.achieved(report["achieved_diameter"], report["achieved_stretch"])
                p.ratio_max = max(p.ratio_max, chain.ratio(report))
            except (ValueError, KeyError, TypeError, IndexError) as err:
                p.fail(chain.label, f"unreadable output: {type(err).__name__}: {err}")
                continue
            if written != state.expected[chain.label]:
                p.fail(chain.label, "gen wrote a different graph than generate()")
            for f in (graph, edges, report_file):
                sha.update(f.name.encode() + b"\0" + f.read_bytes())
    finally:
        os.chdir(here)
    p.digest = sha.hexdigest()
    return p


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    run: Callable[[object, Phase], Pass]
    instances: Callable[[int], list]  # for the non-triviality test


def _cli_setup(seed: int) -> CliState:
    chains = cli_chains(seed)
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    return CliState(workdir, chains, {c.label: sf.generate(c.spec) for c in chains})


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("shortcut_random", shortcut_random_cases, run_cases, shortcut_random_cases),
        Workload("shortcut_deep", shortcut_deep_cases, run_cases, shortcut_deep_cases),
        Workload("hopset", hopset_cases, run_cases, hopset_cases),
        Workload("cli_roundtrip", _cli_setup, run_cli, cli_chains),
    )
}


def teardown(state: object) -> None:
    if isinstance(state, CliState):
        shutil.rmtree(state.workdir)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def warm_up() -> None:
    """Touch every kernel once on tiny inputs, so no pass pays first-call costs."""
    g = sf.generate(sf.GenSpec("random_dag", 40, density=3.0, seed=1))
    sf.verify_shortcut(g, sf.build_shortcuts(g, 3, seed=1), 3)
    w = sf.generate(sf.GenSpec("weighted_random", 40, density=3.0, W=10, seed=1))
    sf.verify_hopset(w, sf.build_hopset(w, 12, EPS, seed=1), 12, EPS)
    sf.verify_hopset(w, sf.hopset_small_hop(w, 24, EPS, seed=1), 24, EPS)
