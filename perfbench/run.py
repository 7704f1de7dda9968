"""Benchmark of the reproduction, end to end or traced layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

The workload (``figures``, ``atlas`` or ``cli``, see ``workloads.py``)
is set up three times, each time from a fresh interpreter's imports;
``setup_s`` is the median.  The timed section then runs whole rounds of
the workload's operations, their number fixed by ``--seconds``, and the
outputs are checked apart from the program.  The last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of an
untraced run.  ``--trace 1`` runs the timed section untraced and then
traced, and reports the per-layer metrics, the traced ``wall_s``, the
tracing overhead and the traced time no layer accounts for; its spans
are written as JSONL under ``.perfbench-work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "atlas", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_times(stderr: str) -> tuple:
    """``(repro_s, scipy_s)`` from one ``-X importtime`` report.

    ``repro_s`` is the cumulative time of the top-level ``repro``
    imports, every dependency included; ``scipy_s`` is the self time
    of every ``scipy`` module, wherever it was imported from.
    """
    repro_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|", 2)
        if not own.strip().isdigit():
            continue  # the header line
        module = name.strip()
        if name[1:] == module and (module == "repro"
                                   or module.startswith("repro.")):
            repro_us += int(cumulative)
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += int(own)
    return repro_us / 1e6, scipy_us / 1e6


def set_up(workload, work: pathlib.Path, trace: bool):
    """Set the workload up :data:`SETUPS` times; keep the last state."""
    command = [sys.executable] + (["-X", "importtime"] if trace else []) \
        + ["-c", f"import {workload.modules}"]
    seconds, imports = [], []
    for index in range(SETUPS):
        start = time.perf_counter()
        started = subprocess.run(command, capture_output=True,
                                 text=True, timeout=120)
        if started.returncode != 0:
            raise RuntimeError(f"fresh interpreter failed to import "
                               f"{workload.modules}: {started.stderr}")
        state = workload.prepare(work / f"setup-{index}")
        seconds.append(time.perf_counter() - start)
        imports.append(import_times(started.stderr))
    return state, statistics.median(seconds), imports


def timed(workload, state, rounds: int, tag: str, recorder=None):
    """Run the timed section round by round; returns ``(pass, wall_s)``.

    Each round's CPU time is user plus system time of this process and
    of the children it waited for (workers, CLI calls).  Traced, the
    section is one ``bench`` span, and ``wall_s`` is its duration.
    """
    out = workload.begin(state, tag)
    span = recorder.open("bench") if recorder is not None else None
    start = time.perf_counter()
    try:
        for index in range(rounds):
            before, begun = os.times(), time.perf_counter()
            workload.run_round(state, out, index, recorder=recorder)
            out.round_walls.append(time.perf_counter() - begun)
            after = os.times()
            out.round_cpus.append(sum(after[i] - before[i]
                                      for i in range(4)))
    finally:
        wall = time.perf_counter() - start
        if recorder is not None:
            recorder.close(span)
            wall = recorder.spans[span][2] - recorder.spans[span][1]
    return out, wall


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for child."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources at {SRC}: run the benchmark from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)  # for every interpreter started
    from tracing import Recorder, Tracer, layer_metrics, self_times
    from workloads import WORKLOADS, disk_bytes
    from repro.runtime import registry

    workload = WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        state, setup_s, imports = set_up(workload, work, bool(args.trace))
        rounds = workload.rounds(args.seconds)
        result, wall = timed(workload, state, rounds, "timed")
        problems = workload.check(state, result)
        if not args.trace:
            # A round slowed by a burst of host load weighs no more than
            # the median round: the section's length is the median
            # round's times the number of rounds.
            typical_wall = statistics.median(result.round_walls) * rounds
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (typical_wall, "s"),
                "ops_per_s": (len(result.ops) / typical_wall, "1/s"),
                "op_p50_s": (statistics.median(
                    op.seconds for op in result.ops), "s"),
                "cpu_s": (statistics.median(result.round_cpus) * rounds,
                          "s"),
                "peak_rss_mb": (peak_rss_mb(), "MiB"),
                "disk_bytes": (disk_bytes(result.disk_root), "bytes"),
            }
        else:
            recorder = Recorder()
            tracer = Tracer(recorder)
            tracer.install()
            try:
                traced, traced_wall = timed(workload, state, rounds,
                                            "traced", recorder)
            finally:
                tracer.remove()
            problems += workload.check(state, traced)
            recorder.write_jsonl(WORK / "traces" / (
                f"{args.workload}-seed{args.seed}.jsonl"))
            # The bench span (the recorder's first) keeps as its own time
            # what no layer wrapper covers: the benchmark's loop and the
            # program code between wrapped calls.
            unattributed = self_times(recorder.spans)[0]
            metrics = layer_metrics(recorder, registry.names())
            metrics.update({
                "import.repro_s": (statistics.median(
                    repro for repro, _ in imports), "s"),
                "import.scipy_s": (statistics.median(
                    scipy for _, scipy in imports), "s"),
                "trace.wall_s": (traced_wall, "s"),
                "trace.untraced_wall_s": (wall, "s"),
                "trace.overhead_s": (traced_wall - wall, "s"),
                "trace.unattributed_s": (unattributed, "s"),
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(result.ops),
        "failed": sum(op.failed for op in result.ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
