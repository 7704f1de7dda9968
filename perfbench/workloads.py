"""The benchmark's three workloads.

Each workload has a set-up (:meth:`prepare`), a round of operations
(:meth:`run_round`; the timed section runs whole rounds) and output
checks computed apart from the program (:meth:`check`).  Load comes from one process;
``atlas`` fans its points out over two worker processes.

* ``figures`` — every registry experiment once per round, at default
  scale and default seeds, ``backend="auto"``, one job, into a fresh
  result cache: a user's first ``repro run all``.
* ``atlas`` — a fused ``eq1`` sweep over a dense cross-traffic axis
  through ``SweepPlan``/``run_plan`` into a ``SweepStore`` with a
  ``Manifest`` journal, followed by ``run_adaptive`` curvature waves
  that read the store back: the sweep engine's path.
* ``cli`` — a closed loop of ``python -m repro`` calls, one process at
  a time, against a filled cache and a completed sweep store: what
  every repeat invocation pays.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from models import bianchi_throughput_bps, eq1_rate

from repro.analysis.results import ExperimentResult
from repro.mac.params import PhyParams
from repro.runtime import registry
from repro.runtime.cache import ResultCache, code_version
from repro.runtime.manifest import Manifest
from repro.runtime.store import SweepStore
from repro.runtime.sweep import (SweepPlan, expand_grid, parse_param_spec,
                                 run_adaptive, run_plan)

#: Worker processes of ``atlas``: the two CPUs of the reference machine.
ATLAS_JOBS = 2

#: Per-point size of every eq1 sweep.  200 packets x 4 repetitions keeps
#: the largest eq. 1 error of a point near 6% on the axis below, so no
#: point fails the 10% check on any seed; 100 x 4 reaches 8% and would
#: fail on some seeds over a few thousand points.
EQ1_POINT = (("n_packets", 200), ("repetitions", 4))

#: Cross-traffic axis of the eq1 sweeps, in b/s, against a 10 Mb/s hop.
CROSS_LO, CROSS_HI = 1.0e6, 5.0e6

#: Relative eq. 1 tolerance the paper's wired baseline is held to.
EQ1_TOLERANCE = 0.10

#: Saturated throughput must track Bianchi within this share.
BIANCHI_TOLERANCE = 0.08


@dataclass
class Op:
    """One timed operation: its label, seconds and whether it failed."""

    label: str
    seconds: float
    failed: bool


@dataclass
class Pass:
    """What one timed pass produced."""

    #: Directory whose files count towards ``disk_bytes``.
    disk_root: pathlib.Path
    ops: List[Op] = field(default_factory=list)
    #: Wall and CPU seconds of each round.
    round_walls: List[float] = field(default_factory=list)
    round_cpus: List[float] = field(default_factory=list)
    #: What the checks read: results, store roots, CLI replies.
    outputs: Dict[str, object] = field(default_factory=dict)


def disk_bytes(root: pathlib.Path) -> int:
    """Total size of the regular files under ``root``."""
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def round_seed(seed: int, index: int) -> int:
    """The program seed of one round, made from the benchmark seed."""
    return random.Random(f"{seed}/{index}").randrange(1, 2 ** 31)


def _eq1_specs(points: int):
    """The eq1 sweep's ``--param`` strings and their parsed specs."""
    axis = np.linspace(CROSS_LO, CROSS_HI, points)
    texts = ["cross_rate_bps=" + ",".join(repr(float(v)) for v in axis)]
    texts += [f"{name}={value}" for name, value in EQ1_POINT]
    return texts, [parse_param_spec(text) for text in texts]


def _eq1_problems(label: str, result) -> List[str]:
    """Measured rates of one eq1 result against eq. 1 (10%)."""
    capacity = float(result.meta["capacity_bps"])
    available = float(result.meta["available_bps"])
    model = eq1_rate(result.x, capacity, available)
    measured = np.asarray(result.series["measured_bps"], dtype=float)
    error = np.abs(measured - model) / model
    problems = []
    if not np.all(error <= EQ1_TOLERANCE):
        problems.append(f"{label}: eq. 1 error {error.max():.3f} "
                        f"> {EQ1_TOLERANCE}")
    if not np.allclose(result.series["model_eq1_bps"], model,
                       rtol=1e-9):
        problems.append(f"{label}: program's eq. 1 curve differs from "
                        "the formula")
    return problems


class Workload:
    """Set-up, one round of operations, and the output checks."""

    name = ""
    #: Modules a fresh interpreter imports during set-up.
    modules = "repro.runtime"
    #: Nominal length of one round on the reference machine; the number
    #: of rounds is a fixed function of ``--seconds``, so the same
    #: ``--seconds`` always does the same work.
    round_s = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def prepare(self, root: pathlib.Path) -> Dict[str, object]:
        root.mkdir(parents=True, exist_ok=True)
        return {"root": root}

    def begin(self, state, tag: str) -> Pass:
        """An empty pass whose files land under ``state["root"]/tag``."""
        return Pass(disk_root=state["root"] / tag)


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

class Figures(Workload):
    name = "figures"
    round_s = 60.0

    #: The one experiment whose paper checks fail on its default seed:
    #: its tool's estimate at 3 Mb/s of cross traffic is 27.5% off B.
    EXPECTED_FAILURE = "ext-tool-convergence"

    def run_round(self, state, out: Pass, index: int,
                  recorder=None) -> None:
        cache = ResultCache(out.disk_root / f"round-{index}")
        results = out.outputs.setdefault("results", {})
        errors = out.outputs.setdefault("errors", {})
        for experiment in registry.experiments():
            start = time.perf_counter()
            try:
                result = experiment.run(backend="auto", jobs=1,
                                        cache=cache).result
            except Exception as exc:  # a failed op, not a crash
                result = None
                errors[experiment.name] = repr(exc)
            out.ops.append(Op(experiment.name,
                              time.perf_counter() - start,
                              result is None or not result.all_checks_pass))
            results[experiment.name] = result

    def check(self, state, result: Pass) -> List[str]:
        phy = PhyParams.dot11b()
        problems = [f"{name}: raised {error}"
                    for name, error in result.outputs["errors"].items()]
        problems += [f"{op.label}: paper checks failed"
                     for op in result.ops
                     if op.failed and op.label != self.EXPECTED_FAILURE]
        for name, outcome in result.outputs["results"].items():
            if outcome is None:
                continue
            arrays = [outcome.x] + list(outcome.series.values())
            if not all(np.all(np.isfinite(np.asarray(a, dtype=float)))
                       for a in arrays):
                problems.append(f"{name}: a series is not finite")
            # eq1 is the wired 10 Mb/s hop; the rest ride 802.11b.
            link = float(outcome.meta["capacity_bps"]) if name == "eq1" \
                else phy.data_rate
            for series, values in outcome.series.items():
                if series.endswith("_bps") and np.max(values) > link:
                    problems.append(f"{name}: {series} exceeds the "
                                    f"{link / 1e6:g} Mb/s link")
            if name == "eq1":
                problems += _eq1_problems(name, outcome)
            if name == "ext-saturation":
                size = int(outcome.meta["size_bytes"])
                model = np.array([bianchi_throughput_bps(int(n), phy, size)
                                  for n in outcome.x])
                measured = outcome.series["throughput_bps"]
                if not np.all(np.abs(measured - model)
                              <= BIANCHI_TOLERANCE * model):
                    problems.append(f"{name}: throughput off Bianchi by "
                                    f"more than {BIANCHI_TOLERANCE:.0%}")
                if not np.allclose(outcome.series["bianchi_bps"], model,
                                   rtol=1e-6):
                    problems.append(f"{name}: program's Bianchi curve "
                                    "differs from the fixed point")
        return problems


# ----------------------------------------------------------------------
# atlas
# ----------------------------------------------------------------------

class Atlas(Workload):
    name = "atlas"
    round_s = 3.75
    #: Grid points per round, and the refinement budget of its waves.
    GRID = 72
    ADAPT = 16
    #: Grid indices re-run standalone to pin fused-vs-standalone identity.
    SAMPLE = (0, GRID // 2, GRID - 1)

    def run_round(self, state, out: Pass, index: int,
                  recorder=None) -> None:
        """One fused sweep into a fresh store, then its refinement.

        An op is one executed point.  Points run in fused windows on the
        workers, not one by one, so each point of a window is given the
        window's wall time in this process (fan-out, payloads, store
        chunk and journal append, and for a wave's first window the
        store read-back that chose it) over its executed points.  The
        points ``run_adaptive`` resumes from the first sweep are no ops.
        """
        from tracing import SHIPPED
        experiment = registry.get("eq1")
        _texts, specs = _eq1_specs(self.GRID)
        seed = round_seed(self.seed, index)
        root = out.disk_root / f"round-{index}"
        store = SweepStore.create(root, "eq1", params=[n for n, _ in specs])
        manifest = Manifest.create(root / "manifest.jsonl", "sweep", "eq1",
                                   invocation={"seed": seed})
        plan = SweepPlan(experiment, expand_grid(specs), seed=seed,
                         backend="auto")
        stream = run_plan(plan, jobs=ATLAS_JOBS, store=store,
                          manifest=manifest)
        waves = run_adaptive(experiment, specs, adapt=self.ADAPT,
                             metric="measured_bps", seed=seed,
                             backend="auto", jobs=ATLAS_JOBS, store=store,
                             manifest=manifest)
        outcomes = []
        windows = itertools.chain(stream, waves)
        while True:
            start = time.perf_counter()
            window = next(windows, None)
            seconds = time.perf_counter() - start
            if window is None:
                break
            executed = [outcome for outcome in window.outcomes
                        if not outcome["resumed"]]
            for outcome in window.outcomes:
                shipped = outcome.pop(SHIPPED, None)
                if shipped and recorder is not None:
                    recorder.worker_trees.append(shipped)
            out.ops += [Op(outcome["label"], seconds / len(executed),
                           outcome["status"] != "done")
                        for outcome in executed]
            outcomes += [(window.wave, outcome) for outcome in executed]
        store.close()
        out.outputs.setdefault("rounds", []).append(
            {"root": root, "seed": seed, "outcomes": outcomes})

    def check(self, state, result: Pass) -> List[str]:
        experiment = registry.get("eq1")
        _texts, specs = _eq1_specs(self.GRID)
        grid = [float(v) for v in specs[0][1]]
        problems = []
        for record in result.outputs["rounds"]:
            root, seed = record["root"], record["seed"]
            planned = list(SweepPlan(experiment, expand_grid(specs),
                                     seed=seed, backend="auto").planned())
            refined = [float(o["overrides"]["cross_rate_bps"])
                       for wave, o in record["outcomes"] if wave > 0]
            if len(refined) != self.ADAPT:
                problems.append(f"{root.name}: {len(refined)} refined "
                                f"points, budget {self.ADAPT}")
            if len(set(refined)) != len(refined) \
                    or set(refined) & set(grid) \
                    or not all(grid[0] < v < grid[-1] for v in refined):
                problems.append(f"{root.name}: refined values duplicated "
                                "or outside the grid")
            frame = SweepStore.open(root).frame(
                columns=["point_id", "status", "payload"])
            ids = [str(pid) for pid in frame["point_id"]]
            expected = {p.point_id for p in planned} | {
                str(o["point_id"]) for _wave, o in record["outcomes"]}
            if len(ids) != len(set(ids)) or set(ids) != expected \
                    or len(ids) != self.GRID + len(refined):
                problems.append(f"{root.name}: store rows do not hold "
                                "each planned point exactly once")
            journal = Manifest.load(root / "manifest.jsonl").records
            statuses = {pid: str(s) for pid, s in zip(ids, frame["status"])}
            if {pid: r.status for pid, r in journal.items()} != statuses:
                problems.append(f"{root.name}: journal and store "
                                "statuses differ")
            payloads = dict(zip(ids, (str(b) for b in frame["payload"])))
            for pid, blob in payloads.items():
                if not blob:  # an ``error`` row: counted as a failed op
                    continue
                problems += _eq1_problems(
                    f"{root.name}/{pid}",
                    ExperimentResult.from_dict(json.loads(blob)))
            for index in self.SAMPLE:
                point = planned[index]
                report = experiment.run(seed=seed, jobs=1, backend="auto",
                                        overrides=point.overrides)
                if json.dumps(report.result.to_dict()) \
                        != payloads.get(point.point_id):
                    problems.append(f"{root.name}: point {index} differs "
                                    "from its standalone run")
        return problems


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

class Cli(Workload):
    name = "cli"
    modules = "repro.cli"
    round_s = 12.0
    #: Cheap experiments whose cached results the ``run`` calls hit.
    CACHED = ("ablation-truncation", "ext-saturation", "ext-retry-limit",
              "ablation-ks")
    #: Grid points of the completed sweep the ``--resume`` call finds.
    SWEEP_POINTS = 16

    def prepare(self, root: pathlib.Path) -> Dict[str, object]:
        state = super().prepare(root)
        cache = ResultCache(root / "cache")
        tables = {}
        for name in self.CACHED:
            report = registry.get(name).run(backend="auto", jobs=1,
                                            cache=cache)
            tables[name] = report.result.table()
        texts, specs = _eq1_specs(self.SWEEP_POINTS)
        store_dir = root / "sweep"
        store = SweepStore.create(store_dir, "eq1",
                                  params=[n for n, _ in specs])
        manifest = Manifest.create(store_dir / "manifest.jsonl", "sweep",
                                   "eq1", invocation={"seed": self.seed})
        plan = SweepPlan(registry.get("eq1"), expand_grid(specs),
                         seed=self.seed, backend="auto")
        for _window in run_plan(plan, jobs=1, store=store,
                                manifest=manifest):
            pass
        store.close()
        sweep = ["sweep", "eq1"]
        for text in texts:
            sweep += ["--param", text]
        sweep += ["--seed", str(self.seed), "--jobs", "1",
                  "--store", str(store_dir),
                  "--resume", str(store_dir / "manifest.jsonl"),
                  "--cache-dir", str(root / "cache")]
        calls = [["run", name, "--cache-dir", str(root / "cache")]
                 for name in self.CACHED]
        calls += [sweep, ["list"],
                  ["cache", "stats", "--store", str(store_dir),
                   "--cache-dir", str(root / "cache")]]
        random.Random(self.seed).shuffle(calls)
        state.update(tables=tables, calls=calls)
        return state

    def begin(self, state, tag: str) -> Pass:
        """The calls only read: the cache and store of the set-up are
        what lies on disk."""
        return Pass(disk_root=state["root"])

    def run_round(self, state, out: Pass, index: int,
                  recorder=None) -> None:
        env = dict(os.environ, REPRO_CACHE_DIR=str(state["root"] / "cache"))
        replies = out.outputs.setdefault("replies", [])
        for argv in state["calls"]:
            start = time.perf_counter()
            if recorder is None:
                done = subprocess.run(
                    [sys.executable, "-m", "repro", *argv],
                    cwd=state["root"], env=env, capture_output=True,
                    text=True, timeout=120)
                code, stdout = done.returncode, done.stdout
            else:
                code, stdout = self._traced_call(argv, recorder, env,
                                                 state["root"])
            out.ops.append(Op(argv[0], time.perf_counter() - start,
                              code != 0))
            replies.append((argv, code, stdout))

    @staticmethod
    def _traced_call(argv, recorder, env, cwd) -> Tuple[int, str]:
        """A fresh interpreter's start and imports, then ``main`` in
        process under the layer wrappers (with the code-version memo
        cleared, as a new process starts)."""
        from repro import cli
        index = recorder.open("cli.interpreter")
        try:
            subprocess.run([sys.executable, "-c", "import repro.cli"],
                           cwd=cwd, env=env, check=True, timeout=120)
        finally:
            recorder.close(index)
        code_version.cache_clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        index = recorder.open("cli.main")
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(list(argv))
        finally:
            recorder.close(index)
        return code, stdout.getvalue()

    def check(self, state, result: Pass) -> List[str]:
        problems = []
        names = registry.names()
        for argv, code, stdout in result.outputs["replies"]:
            label = " ".join(argv[:2])
            if code != 0:
                problems.append(f"{label}: exit code {code}")
                continue
            if argv[0] == "run":
                table = state["tables"][argv[1]]
                if "[cache hit " not in stdout:
                    problems.append(f"{label}: not a cache hit")
                if stdout.split("\n   [cache hit ")[0] != table:
                    problems.append(f"{label}: printed table differs "
                                    "from the set-up result's")
            elif argv[0] == "sweep":
                summary = [line for line in stdout.splitlines()
                           if line.startswith("== sweep eq1: ")]
                wanted = (f"== sweep eq1: {self.SWEEP_POINTS}/"
                          f"{self.SWEEP_POINTS} points pass "
                          f"({self.SWEEP_POINTS} resumed) ==")
                if summary != [wanted]:
                    problems.append(f"{label}: resume executed points: "
                                    f"{summary}")
            elif argv[0] == "list":
                listed = {line.split()[0] for line in stdout.splitlines()
                          if line.startswith("  ") and line.strip()}
                if listed != set(names):
                    problems.append("list: experiment names differ "
                                    "from the registry")
            else:
                stats = json.loads(stdout)
                if stats["cache"]["entries"] != len(self.CACHED) \
                        or stats["stores"][0]["points"] \
                        != self.SWEEP_POINTS:
                    problems.append(f"cache stats: {stats}")
        return problems


WORKLOADS = {workload.name: workload
             for workload in (Figures, Atlas, Cli)}
