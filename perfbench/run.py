"""Build-and-verify benchmark for shortcutforge.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
One process, one closed-loop caller: each instance is built and verified
before the next starts, and the whole instance set is run again for about S
seconds: no pass starts that would end more than half a pass past S.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the passes.
With --trace 1 untraced and traced passes alternate and the metrics are the
per-layer ones (see spans.py), medians over the traced passes.  The line
before the result holds the environment, the sample counts, the achieved
diameter and stretch, and the SHA-256 of the files the CLI wrote.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time counts from here, before any heavy import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_SAMPLES = 5  # this process plus four fresh ones

END_TO_END = {
    "solve_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "edges_total": "count",
    "target_ratio_max": "ratio",
    "ok_share": "ratio",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    return ap.parse_args(argv)


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"vendor": info.get("name"), "version": info.get("version"), "threads": None,
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(root: Path, src: Path, seed: int) -> dict:
    import hashlib

    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for f in sorted(src.rglob("*.py")):
        digest.update(str(f.relative_to(src)).encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: imports plus instance generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    try:
        import workloads
    except (ImportError, RuntimeError) as err:  # no package source to measure
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    if args.trace:
        import spans

        tracer = spans.Tracer()
        try:
            with spans.installed(tracer), tracer.span("bench.setup"):
                state = wl.setup(args.seed)
        except spans.MissingTarget as err:
            print(f"error: {err}", file=sys.stderr)
            return 3
        setup_s = perf_counter() - _T0
    else:
        state = wl.setup(args.seed)
        setup_s = perf_counter() - _T0
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workloads.warm_up()
        if args.trace:
            result = _traced(wl, state, args.seconds, spans, tracer)
        else:
            samples = [setup_s] + [_setup_probe(args.workload, args.seed)
                                   for _ in range(SETUP_SAMPLES - 1)]
            result = _untraced(wl, state, args.seconds, samples)
    finally:
        workloads.teardown(state)

    info = result.pop("info")
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
                env=_environment(workloads.ROOT, workloads.SRC, args.seed))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def _more(start: float, seconds: float, last: float) -> bool:
    # Start another pass only if it should end by about the deadline, so a
    # run lasts about --seconds whatever one pass takes.
    return perf_counter() - start + last / 2 < seconds


def _passes(seconds: float, run_one) -> list:
    out = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out.append(run_one())
        if not _more(start, seconds, perf_counter() - t0):
            return out


def _report_failures(passes) -> None:
    for p in passes:
        for line in p.failures:
            print(f"FAILED {line}", file=sys.stderr)


def _info(passes) -> dict:
    last = passes[-1]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes if p.digest})
    return {
        "passes": len(passes),
        "solve_s_samples": [p.solve_s for p in passes],
        "failed_share": failed / attempted,
        "achieved_diameter_max": last.diameter_max,
        "achieved_stretch_max": None if last.stretch_max is None else str(last.stretch_max),
        "cli_sha256": digests[0] if len(digests) == 1 else digests or None,
    }


def _untraced(wl, state, seconds: float, setup_samples: list[float]) -> dict:
    passes = _passes(seconds, lambda: wl.run(state))
    _report_failures(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {
        "solve_s": _median([p.solve_s for p in passes]),
        "build_s": _median([p.build_s for p in passes]),
        "verify_s": _median([p.verify_s for p in passes]),
        "setup_s": _median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "edges_total": max(p.edges_total for p in passes),
        "target_ratio_max": max(p.ratio_max for p in passes),
        "ok_share": 1.0 - failed / attempted,
    }
    info = _info(passes)
    info["setup_s_samples"] = setup_samples
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
        "info": info,
    }


def _traced(wl, state, seconds: float, spans, setup_tracer) -> dict:
    setup = setup_tracer.summary()
    plain, traced, layers = [], [], []
    start = last = perf_counter()
    while not traced or _more(start, seconds, perf_counter() - last):
        last = perf_counter()
        if len(plain) <= len(traced):
            plain.append(wl.run(state))
            continue
        t = spans.Tracer()
        with spans.installed(t):
            p = wl.run(state, t.span)
        traced.append(p)
        summary = t.summary()
        for key, value in setup.items():
            summary[key] += value
        row = spans.layer_metrics(summary, p)
        row["trace.self_sum_s"] = t.self_total(("bench.build", "bench.verify"))
        layers.append(row)
    passes = plain + traced
    _report_failures(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    values = {name: _median([row[name] for row in layers]) for name in layers[0]}
    untraced_solve = _median([p.solve_s for p in plain])
    values.update({
        "trace.untraced_solve_s": untraced_solve,
        "trace.traced_solve_s": _median([p.solve_s for p in traced]),
        "trace.untraced_build_verify_s": _median([p.build_s + p.verify_s for p in plain]),
    })
    values["trace.overhead_s"] = values["trace.traced_solve_s"] - untraced_solve
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in spans.PER_LAYER.items()},
        "info": _info(passes),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
