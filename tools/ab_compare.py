"""In-process interleaved A/B timing of two snm source trees on a bench query set.

Usage, from the root of a source checkout (mpmath installed, as for the bench):

    python3 tools/ab_compare.py BASE HEAD --workload tails --seed 1
    python3 tools/ab_compare.py ../base . --workload bulk --seed 7 --passes 16 --rounds 6
    python3 tools/ab_compare.py ../base . --setup

BASE and HEAD are checkout roots, each holding ``src/snm``.  Separate
processes on a shared machine drift by tens of percent between runs, so
both trees run in one process: each tree's ``snm`` is copied to a
temporary directory under its own package name (``snm_base``,
``snm_head``) and imported side by side.  The query set is built once per
tree by loading this checkout's ``bench/workloads.py`` with its ``snm``
bound to that tree, so a tree's queries only ever meet that tree's
classes and enums.  Each pass times every query
once on both trees, back to back, the order alternating from query to
query and pass to pass; a query's time is its minimum over the passes.

Per round it prints how many roots moved per solver, with the median and
largest move in ulps, the label of the query that moved most, and how
many of the moved roots pass the bench's accuracy check
(``Query.within``) on BASE and on HEAD, then, for BASE, HEAD and the
change: ``us_per_query``,
``query_us_p50`` and ``query_us_p99`` over the workload's main queries,
each solver's µs per query (control queries included, as in
``bench/run.py``) and its evaluations per query, how many roots (by
their bits), evaluation counts and traces (the bits of every record's
iterate and step) of the two trees agree, and each
tree's evaluations and µs per query by solver and start label, each
tree's queries under its own labels, so a start change shows which class
paid or gained, next to each class's µs per query in the solver's plan
function alone (``gamma_start``, ``beta_plan``, ``elliptic_plan``), timed
in the same passes, so a start's own cost is seen apart from the
evaluations it saves.  With ``--rounds`` above 1 it ends with each metric's
per-round changes and BASE's quartiles across the rounds.  It reads the
bench directory and writes nothing there (no bytecode is cached).

``--setup`` times ``setup_s`` instead: ``bench/run.py``'s ``SETUP_CODE``
(a fresh ``python -I`` imports the tree's ``snm`` and calls each solver
once) for BASE and HEAD in 25 interleaved pairs of fresh interpreters
(more than the bench's 21 samples), the order alternating from pair to
pair.  One unrecorded run per tree first caches its bytecode, as
a bench run's first sample does.  It prints each tree's quartiles and
median, the change of the medians, the median of the per-pair HEAD/BASE
ratios, and in how many pairs HEAD was faster.  The samples drift and
cluster with the machine's state (5.5-9.5 ms in one run), so a tree's
median can land in either cluster; the two runs of a pair, taken back to
back, mostly see the same state, so the median pair ratio is the steadier
estimate of the change.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import math
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent.parent / "bench"
QUERIES_PER_CLASS = 500  # as bench/run.py
TREES = ("base", "head")
PLANS = {"gamma": "gamma_start", "beta": "beta_plan", "elliptic": "elliptic_plan"}
SETUP_PAIRS = 25  # >= bench/run.py's SETUP_REPEATS


def load_tree(root: Path, name: str, into: Path):
    """Import ``root``/src/snm as the package ``snm_<name>`` from a copy in ``into``."""
    package = f"snm_{name}"
    shutil.copytree(root / "src" / "snm", into / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(package)


def load_workloads(bench: Path, snm_package, name: str):
    """Execute bench/workloads.py as a new module whose ``import snm`` is ``snm_package``."""
    spec = importlib.util.spec_from_file_location(f"workloads_{name}", bench / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    saved = sys.modules.get("snm")
    sys.modules["snm"] = snm_package
    try:
        spec.loader.exec_module(module)
    finally:
        if saved is None:
            del sys.modules["snm"]
        else:
            sys.modules["snm"] = saved
    return module


def load_bench_run(bench: Path):
    """bench/run.py as a module; its top level only defines names."""
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup_pairs(roots: list[Path], code: str) -> list[list[float]]:
    """Seconds of ``code`` per tree, over interleaved fresh interpreters."""
    commands = [[sys.executable, "-I", "-c", code.format(src=str(root / "src"))]
                for root in roots]

    def sample(command: list[str]) -> float:
        out = subprocess.run(command, capture_output=True, text=True, check=True, timeout=60)
        return float(out.stdout.strip().splitlines()[-1])

    for command in commands:  # caches the tree's bytecode; not recorded
        sample(command)
    times: list[list[float]] = [[] for _ in roots]
    for k in range(SETUP_PAIRS):
        for t in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[t].append(sample(commands[t]))
    return times


def report_setup(times: list[list[float]]) -> None:
    """Each tree's quartiles (ms), the change of the medians, the median
    per-pair ratio and the pairs HEAD won."""
    print(f"  {'tree':6s} {'q1 ms':>8s} {'median':>8s} {'q3 ms':>8s}")
    medians = []
    for name, samples in zip(TREES, times):
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        medians.append(q2)
        print(f"  {name:6s} {1e3 * q1:8.2f} {1e3 * q2:8.2f} {1e3 * q3:8.2f}")
    ratio = statistics.median(h / b for b, h in zip(*times))
    faster = sum(h < b for b, h in zip(*times))
    print(f"  median change {100.0 * (medians[1] / medians[0] - 1.0):+.1f}%, "
          f"median pair ratio {100.0 * (ratio - 1.0):+.1f}%, "
          f"head faster in {faster}/{len(times[0])} pairs")


def _outcome(out) -> tuple:
    """(root bits, evaluations, start label, the bits of each trace record's x
    and step) of a report, or the exception's type name."""
    if isinstance(out, Exception):
        return (type(out).__name__, None, None, None)
    return (out.root.hex(), out.evaluations, out.start,
            tuple((r.x.hex(), r.step.hex()) for r in out.trace))


def time_round(sets: list[list], plans: list[dict], passes: int
               ) -> tuple[list[list[float]], list[list[float]], list[list[tuple]]]:
    """Per-query minimum time (µs) per tree of the call and of its plan alone
    (NaN without one), and each query's first outcome per tree."""
    n = len(sets[0])
    best = [[math.inf] * n for _ in sets]
    plan_best = [[math.inf] * n for _ in sets]
    outcomes: list[list] = [[None] * n for _ in sets]
    clock = time.perf_counter_ns
    for k in range(passes):
        gc.collect()
        gc.disable()
        try:
            for i in range(n):
                for t in ((0, 1) if (i + k) % 2 == 0 else (1, 0)):
                    q = sets[t][i]
                    obj = q.make()
                    t0 = clock()
                    try:
                        out = q.call(obj)
                    except Exception as exc:
                        out = exc
                    t1 = clock()
                    if t1 - t0 < best[t][i]:
                        best[t][i] = t1 - t0
                    if k == 0:
                        outcomes[t][i] = _outcome(out)
                    plan = plans[t].get(q.solver)
                    if plan is not None:
                        t0 = clock()
                        try:
                            plan(obj)
                        except Exception:
                            pass
                        t1 = clock()
                        if t1 - t0 < plan_best[t][i]:
                            plan_best[t][i] = t1 - t0
        finally:
            gc.enable()
    return ([[ns / 1000.0 for ns in row] for row in best],
            [[ns / 1000.0 if ns < math.inf else math.nan for ns in row] for row in plan_best],
            outcomes)


def _ordinal(x: float) -> int:
    """The double's position in the ordered doubles, so adjacent ones differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _within(query, outcome: tuple) -> bool:
    """Whether a tree's root for the query passes the bench's check; False if it raised."""
    return outcome[1] is not None and query.within(float.fromhex(outcome[0]))


def report_moved_roots(queries: list, outcomes: list[list[tuple]], solvers) -> None:
    """Per solver, the roots whose bits differ, the median and largest
    distance in ulps with the label of the query that moved most (the first
    of a tie), and how many of them pass ``Query.within`` (the bench's
    accuracy check) on each tree; a query that raised on either tree counts
    as moved without a distance, and as failing on that tree."""
    parts = []
    for solver in solvers:
        triples = [(q, a, b) for q, a, b in zip(queries, *outcomes) if q.solver == solver]
        ulps = []
        moved = []
        for q, a, b in triples:
            if a[0] == b[0]:
                continue
            moved.append((q, a, b))
            if a[1] is not None and b[1] is not None:  # neither raised
                ulps.append((abs(_ordinal(float.fromhex(a[0])) - _ordinal(float.fromhex(b[0]))),
                             q.label))
        if not moved:
            parts.append(f"{solver} 0/{len(triples)}")
            continue
        base = sum(_within(q, a) for q, a, _ in moved)
        head = sum(_within(q, b) for q, _, b in moved)
        if ulps:
            most, label = max(ulps, key=lambda pair: pair[0])
            spread = (f"median {statistics.median(u for u, _ in ulps):g} ulps, "
                      f"max {most} at {label}; ")
        else:
            spread = ""
        parts.append(f"{solver} {len(moved)}/{len(triples)} ({spread}within {base} | {head})")
    print("  roots moved: " + ", ".join(parts))


def metrics(queries: list, us: list[float], outcomes: list[tuple], solvers) -> dict:
    """The bench's end-to-end times, plus evaluations per query per solver."""
    main = [u for q, u in zip(queries, us) if not q.control]
    out = {"us_per_query": statistics.fmean(main),
           "query_us_p50": statistics.median(main),
           "query_us_p99": statistics.quantiles(main, n=100)[98]}
    for solver in solvers:
        idx = [i for i, q in enumerate(queries) if q.solver == solver]
        out[f"{solver}.us_per_query"] = statistics.fmean(us[i] for i in idx)
        evals = [outcomes[i][1] for i in idx if outcomes[i][1] is not None]
        out[f"{solver}.evaluations_per_query"] = statistics.fmean(evals) if evals else math.nan
    return out


def report_starts(queries: list, us: list[list[float]], plan_us: list[list[float]],
                  outcomes: list[list[tuple]]) -> None:
    """Evaluations, µs and plan µs per query per solver and start label, for each tree."""
    cells: dict[tuple[str, str], list[list[float]]] = {}
    for t, tree in enumerate(outcomes):
        for q, u, v, (_, evals, start, _) in zip(queries, us[t], plan_us[t], tree):
            if evals is not None:
                cell = cells.setdefault((q.solver, start), [[0, 0, 0.0, 0.0], [0, 0, 0.0, 0.0]])[t]
                cell[0] += 1
                cell[1] += evals
                cell[2] += u
                cell[3] += v
    print(f"  {'by start: evaluations, µs':32s} {'base':>14s} {'head':>14s} "
          f"{'base µs':>8s} {'head µs':>8s} {'base plan':>9s} {'head plan':>9s}")
    for (solver, start), pair in sorted(cells.items()):
        evals = [f"{e / n:.3f} ({n})" if n else "-" for n, e, _, _ in pair]
        times = [f"{u / n:.2f}" if n else "-" for n, _, u, _ in pair]
        plans = [f"{v / n:.2f}" if n and v == v else "-" for n, _, _, v in pair]
        print(f"  {solver + ' ' + (start or '-'):32s} {evals[0]:>14s} {evals[1]:>14s} "
              f"{times[0]:>8s} {times[1]:>8s} {plans[0]:>9s} {plans[1]:>9s}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout root of the A tree")
    parser.add_argument("head", type=Path, help="checkout root of the B tree")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--passes", type=int, default=16)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--setup", action="store_true",
                        help="time bench/run.py's SETUP_CODE in fresh interpreters")
    args = parser.parse_args(argv)
    for root in (args.base, args.head):
        if not (root / "src" / "snm" / "__init__.py").is_file():
            parser.error(f"no src/snm under {root}")
    if args.setup:
        print(f"setup_s: {SETUP_PAIRS} interleaved pairs of fresh interpreters; "
              f"base {args.base}, head {args.head}")
        roots = [args.base.resolve(), args.head.resolve()]
        report_setup(setup_pairs(roots, load_bench_run(BENCH).SETUP_CODE))
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required without --setup")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        packages = [load_tree(root.resolve(), name, Path(tmp))
                    for root, name in zip((args.base, args.head), TREES)]
        mods = [load_workloads(BENCH, pkg, name) for pkg, name in zip(packages, TREES)]
        if args.workload not in mods[0].WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        full = [m.generate(args.workload, args.seed, QUERIES_PER_CLASS) for m in mods]
        if [q.label for q in full[0]] != [q.label for q in full[1]]:
            raise RuntimeError("the two trees built different query sets")
        # Queries a tree refuses at construction are left out, as in the bench.
        keep = []
        for i in range(len(full[0])):
            try:
                for qs in full:
                    qs[i].make()
            except ValueError:
                continue
            keep.append(i)
        sets = [[qs[i] for i in keep] for qs in full]
        solvers = mods[0].SOLVERS
        plans = [{solver: getattr(pkg, name) for solver, name in PLANS.items()}
                 for pkg in packages]

        print(f"workload {args.workload} seed {args.seed}: {len(keep)} queries, "
              f"{args.passes} passes per round; base {args.base}, head {args.head}")
        history: dict[str, list[tuple[float, float]]] = {}
        for r in range(args.rounds):
            us, plan_us, outcomes = time_round(sets, plans, args.passes)
            m = [metrics(sets[t], us[t], outcomes[t], solvers) for t in range(2)]
            same_root = sum(a[0] == b[0] for a, b in zip(*outcomes))
            same_evals = sum(a[1] == b[1] for a, b in zip(*outcomes))
            same_trace = sum(a[3] == b[3] for a, b in zip(*outcomes))
            print(f"round {r + 1}: roots identical {same_root}/{len(keep)}, "
                  f"evaluations identical {same_evals}/{len(keep)}, "
                  f"traces identical {same_trace}/{len(keep)}")
            report_moved_roots(sets[0], outcomes, solvers)
            print(f"  {'metric':32s} {'base':>10s} {'head':>10s} {'change':>8s}")
            for name in m[0]:
                a, b = m[0][name], m[1][name]
                history.setdefault(name, []).append((a, b))
                print(f"  {name:32s} {a:10.4g} {b:10.4g} {100.0 * (b / a - 1.0):+7.1f}%")
            report_starts(sets[0], us, plan_us, outcomes)
        if args.rounds > 1:
            print("per-round change (%) and base quartiles across rounds:")
            for name, pairs in history.items():
                changes = " ".join(f"{100.0 * (b / a - 1.0):+.1f}" for a, b in pairs)
                q1, q2, q3 = statistics.quantiles([a for a, _ in pairs], n=4)
                print(f"  {name:32s} {changes}  base q1/median/q3 {q1:.4g}/{q2:.4g}/{q3:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
