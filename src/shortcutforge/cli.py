"""Command-line surface: gen | shortcut | hopset | verify | decomp | bench.

Exit codes: 0 ok, 1 verification failure, 2 usage or input error.  Every
randomized subcommand takes a mandatory --seed, so identical command lines
produce identical output files.  Bench checks every cell's D, or beta and
eps, then runs its grid cells one after another and emits one CSV row per
cell, in config order.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

from . import __version__
from .chain_decomp import decompose
from .generators import FAMILIES, GenSpec, check_spec, generate, subdivide
from .graph_core import (
    Digraph,
    WeightedDigraph,
    dump_edge_list,
    load_edge_list,
    load_edge_rows,
    transitive_closure,
)
from .hopset_algos import HOPSET_TAGS, as_eps, build_hopset, hopset_large_hop, hopset_small_hop
from .hopset_algos import check_hop_budget, check_large_hop_budget
from .oracles import verify_hopset, verify_shortcut
from .shortcut_algos import TAGS, build_shortcuts, folklore, tc_spanner
from .shortcut_algos import check_folklore, shortcut_regime

SHORTCUT_MODES = ("auto", "small", "large", "folklore", "tcspanner")
BENCH_ALGOS = {
    "folklore": folklore,
    "small_diam": partial(build_shortcuts, mode="small"),
    "large_d": partial(build_shortcuts, mode="large"),
    "hopset_small": hopset_small_hop,
    "hopset_large": hopset_large_hop,
}

CSV_COLUMNS = (
    "algorithm",
    "family",
    "n",
    "D",
    "beta",
    "eps",
    "c",
    "seed",
    "edges_total",
    *TAGS,
    *HOPSET_TAGS,
    "achieved_diameter",
    "achieved_hops",
    "achieved_stretch",
    "wall_ms",
)


def positive_float(text: str) -> float:
    """A --const or bench c= value: a finite number > 0."""
    value = float(text)
    if not 0 < value < float("inf"):  # false for nan too
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return value


def _read_graph(path: str) -> Digraph | WeightedDigraph:
    report = load_edge_list(Path(path).read_text())
    if report.dropped_self_loops or report.dropped_duplicates:
        print(
            f"note: {path}: dropped {report.dropped_self_loops} self-loop(s)"
            f" and {report.dropped_duplicates} duplicate edge(s)",
            file=sys.stderr,
        )
    if report.original_ids is not None:
        originals = " ".join(map(str, report.original_ids))
        print(
            f"note: {path}: vertex ids renumbered, n={report.declared_n} ->"
            f" n={report.graph.n}; new ids follow the sorted order of the original ids;"
            f" original ids by new id: {originals}",
            file=sys.stderr,
        )
    return report.graph


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(args.family, args.n, args.p, args.density, args.W, args.seed)
    g = generate(spec)
    comments = [f"shortcutforge gen --family {args.family} --n {args.n} --seed {args.seed}"]
    for flag in ("p", "density", "W", "k"):
        if getattr(args, flag) is not None:
            comments[0] += f" --{flag} {getattr(args, flag)}"
    if args.k is not None:
        if isinstance(g, WeightedDigraph):
            raise ValueError("--k subdivision applies to unweighted families only")
        g, _ = subdivide(g, args.k)  # the placement follows from k
        comments.append(
            "subdivided: original vertex v maps to copies "
            f"[v*{args.k + 1}, v*{args.k + 1}+{args.k}]"
        )
    Path(args.out).write_text(dump_edge_list(g, comments))
    print(f"wrote {args.out} (n={g.n}, m={g.m})")
    return 0


def _as_digraph(g: Digraph | WeightedDigraph) -> Digraph:
    if isinstance(g, WeightedDigraph):
        return Digraph(g.n, g.array[:, :2])
    return g


def _write_edges(out: str, hs, head: str) -> int:
    summary = " ".join(f"{tag}={count}" for tag, count in hs.tag_counts.items())
    Path(out).write_text(dump_edge_list(hs, [head, f"edge counts: {summary}"]))
    print(f"wrote {out} ({len(hs)} edges)")
    return 0


def _cmd_shortcut(args: argparse.Namespace) -> int:
    g = _as_digraph(_read_graph(args.input))
    head = (
        f"shortcutforge shortcut --diameter {args.diameter} --const {args.const}"
        f" --seed {args.seed} --mode {args.mode}"
    )
    if args.mode == "tcspanner":
        hs = tc_spanner(g, args.diameter, args.const, seed=args.seed)
    elif args.mode == "folklore":
        hs = folklore(g, args.diameter, args.const, seed=args.seed)
    else:
        hs = build_shortcuts(g, args.diameter, args.const, seed=args.seed, mode=args.mode)
    return _write_edges(args.out, hs, head)


def _cmd_hopset(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    if not isinstance(g, WeightedDigraph):
        raise ValueError("hopset needs a weighted graph file (header 'n m W')")
    eps = as_eps(args.eps)
    hs = build_hopset(g, args.beta, eps, args.const, seed=args.seed)
    head = (
        f"shortcutforge hopset --beta {args.beta} --eps {eps}"
        f" --const {args.const} --seed {args.seed}"
    )
    return _write_edges(args.out, hs, head)


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    n, rows = load_edge_rows(Path(args.edges).read_text())
    if n != g.n:
        raise ValueError(f"edge file is for n={n}, graph has n={g.n}")
    if args.mode == "shortcut":
        if args.diameter is None:
            raise ValueError("verify --mode shortcut needs --diameter")
        report = verify_shortcut(_as_digraph(g), rows[:, :2], args.diameter, instance=args.edges)
    else:
        if args.beta is None or args.eps is None:
            raise ValueError("verify --mode hopset needs --beta and --eps")
        if not isinstance(g, WeightedDigraph):
            raise ValueError("hopset verification needs a weighted graph file")
        if len(rows) and rows.shape[1] != 3:
            raise ValueError(f"hopset edge rows need weights; got {tuple(rows[0].tolist())}")
        report = verify_hopset(g, rows, args.beta, as_eps(args.eps), instance=args.edges)
    for check in report.checks:
        line = f"{check.name}: {check.status}"
        if check.detail:
            line += f" ({check.detail})"
        if check.witness is not None:
            line += f" witness={check.witness}"
        print(line)
    for label, value in (
        ("achieved diameter", report.achieved_diameter),
        ("achieved hops", report.achieved_hops),
        ("achieved stretch", report.achieved_stretch),
    ):
        if value is not None:
            print(f"{label}: {value}")
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n")
    return 0 if report.ok else 1


def _cmd_decomp(args: argparse.Namespace) -> int:
    g = _as_digraph(_read_graph(args.input))
    decomp = decompose(g, args.ell, transitive_closure(g) if args.closure else None)
    for chain in decomp.chains:
        print("chain: " + " ".join(map(str, chain)))
    for anti in decomp.antichains:
        print("antichain: " + " ".join(map(str, sorted(anti))))
    return 0


def _parse_seed_values(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        seeds = list(range(int(lo), int(hi)))
        if not seeds:
            raise ValueError(f"seeds={text} is an empty range")
        return seeds
    return [int(t) for t in text.split(",")]


def _line_cells(lineno: int, body: str) -> list[tuple]:
    """A bench line's cells: (lineno, algorithm, GenSpec, D or beta, eps, c)."""
    fields: dict[str, str] = {}
    for tok in body.split():
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        if key in fields:
            raise ValueError(f"duplicate key {key!r}")
        fields[key] = value
    known = {"algorithm", "family", "n", "p", "density", "W", "D", "beta", "eps", "c", "seeds"}
    for key in fields:
        if key not in known:
            raise ValueError(f"unknown key {key!r}")
    for key in ("algorithm", "family", "n"):
        if key not in fields:
            raise ValueError(f"missing key {key!r}")
    algorithm, family = fields["algorithm"], fields["family"]
    if algorithm not in BENCH_ALGOS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    hopset = algorithm.startswith("hopset")
    if hopset != (family == "weighted_random"):
        wanted = "family=weighted_random" if hopset else "an unweighted family"
        raise ValueError(f"{algorithm} needs {wanted}")
    needs = ("beta", "eps") if hopset else ("D",)
    if any(key not in fields for key in needs):
        raise ValueError(f"{algorithm} needs " + " and ".join(f"{key}=" for key in needs))
    n = int(fields["n"])
    p = float(fields["p"]) if "p" in fields else None
    density = float(fields["density"]) if "density" in fields else None
    W = int(fields["W"]) if "W" in fields else None
    knobs = [int(k) for k in fields[needs[0]].split(",")]
    eps = as_eps(fields["eps"]) if hopset else None
    cs = [positive_float(v) for v in fields.get("c", "3").split(",")]
    seeds = _parse_seed_values(fields.get("seeds", "0"))
    check_spec(GenSpec(family, n, p, density, W))
    for knob in knobs:
        _check_knobs(algorithm, family, n, knob, eps)
    return [
        (lineno, algorithm, GenSpec(family, n, p, density, W, seed), knob, eps, c)
        for knob, c, seed in product(knobs, cs, seeds)
    ]


def _check_knobs(algorithm: str, family: str, n: int, knob: int, eps: Fraction | None) -> None:
    """Raise the ValueError the cell's construction raises for its D or beta.

    eps, None for a shortcut cell, has passed ``as_eps`` already.

    The shortcut routes run on the condensation, which has n vertices in the
    acyclic families; a random_digraph's may have fewer, so there only the
    bounds that do not depend on n are checked before the cell runs.
    """
    if eps is not None:
        if algorithm == "hopset_large":
            check_large_hop_budget(n, knob)
        else:
            check_hop_budget(knob)
    elif algorithm == "folklore":
        check_folklore(knob)
    else:
        mode = "small" if algorithm == "small_diam" else "large"
        shortcut_regime(0 if family == "random_digraph" else n, knob, mode)


def _parse_bench_config(text: str) -> list[tuple]:
    cells: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            try:
                cells += _line_cells(lineno, body)
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise ValueError(f"config line {lineno}: {err}") from None
    return cells


def _run_bench_cell(algorithm: str, spec: GenSpec, knob: int, eps, c: float) -> dict:
    g = generate(spec)
    row: dict[str, object] = dict.fromkeys(CSV_COLUMNS, "")
    row.update(algorithm=algorithm, family=spec.family, n=spec.n, c=c, seed=spec.seed)
    params = (knob, c) if eps is None else (knob, eps, c)
    start = time.perf_counter()
    hs = BENCH_ALGOS[algorithm](g, *params, seed=spec.seed)
    row["wall_ms"] = round((time.perf_counter() - start) * 1000.0, 1)
    row["edges_total"] = len(hs)
    row.update(hs.tag_counts)
    if eps is None:
        row["D"] = knob
        row["achieved_diameter"] = verify_shortcut(g, hs, knob).achieved_diameter
    else:
        row.update(beta=knob, eps=str(eps))
        report = verify_hopset(g, hs, knob, eps)
        row["achieved_hops"] = report.achieved_hops
        if report.achieved_stretch is not None:
            row["achieved_stretch"] = str(report.achieved_stretch)
    return row


def _cmd_bench(args: argparse.Namespace) -> int:
    cells = _parse_bench_config(Path(args.config).read_text())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for lineno, *cell in cells:
        try:
            writer.writerow(_run_bench_cell(*cell))
        except ValueError as err:
            raise ValueError(f"config line {lineno}: {err}") from None
    if args.out:
        Path(args.out).write_text(buf.getvalue())
        print(f"wrote {args.out} ({len(cells)} rows)")
    else:
        sys.stdout.write(buf.getvalue())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shortcutforge",
        description="Diameter-reducing shortcut sets and hopsets for digraphs.",
    )
    parser.add_argument("--version", action="version", version=f"shortcutforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a graph instance")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", required=True, type=int)
    p_gen.add_argument("--p", type=float)
    p_gen.add_argument("--density", type=float)
    p_gen.add_argument("--W", type=int)
    p_gen.add_argument("--k", type=int, help="subdivide each vertex into a k-edge path")
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_sc = sub.add_parser("shortcut", help="build a shortcut set")
    p_sc.add_argument("--input", required=True)
    p_sc.add_argument("--diameter", required=True, type=int)
    p_sc.add_argument("--const", type=positive_float, default=3.0)
    p_sc.add_argument("--seed", required=True, type=int)
    p_sc.add_argument("--out", required=True)
    p_sc.add_argument("--mode", choices=SHORTCUT_MODES, default="auto")
    p_sc.set_defaults(func=_cmd_shortcut)

    p_hs = sub.add_parser("hopset", help="build a hopset for a weighted graph")
    p_hs.add_argument("--input", required=True)
    p_hs.add_argument("--beta", required=True, type=int)
    p_hs.add_argument("--eps", required=True, help="exact rational, e.g. 1/4")
    p_hs.add_argument("--const", type=positive_float, default=3.0)
    p_hs.add_argument("--seed", required=True, type=int)
    p_hs.add_argument("--out", required=True)
    p_hs.set_defaults(func=_cmd_hopset)

    p_vf = sub.add_parser("verify", help="check an edge file against its graph")
    p_vf.add_argument("--graph", required=True)
    p_vf.add_argument("--edges", required=True)
    p_vf.add_argument("--mode", required=True, choices=("shortcut", "hopset"))
    p_vf.add_argument("--diameter", type=int)
    p_vf.add_argument("--beta", type=int)
    p_vf.add_argument("--eps")
    p_vf.add_argument("--json", help="also write the report as JSON to this path")
    p_vf.set_defaults(func=_cmd_verify)

    p_dc = sub.add_parser("decomp", help="print a chain decomposition")
    p_dc.add_argument("--input", required=True)
    p_dc.add_argument("--ell", required=True, type=int)
    p_dc.add_argument(
        "--closure",
        action="store_true",
        help="decompose the transitive closure instead of the input",
    )
    p_dc.set_defaults(func=_cmd_decomp)

    p_bn = sub.add_parser("bench", help="run a benchmark grid, emit CSV")
    p_bn.add_argument("--config", required=True)
    p_bn.add_argument("--out", help="CSV output path (default stdout)")
    p_bn.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
