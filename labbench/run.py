"""Cold-process benchmark of littlelab.

    python3 labbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 labbench/run.py --self-test [--seed N]
    python3 labbench/run.py --cli-report
    python3 labbench/run.py --compare OLD NEW

A run measures one workload for S seconds (by default ``run_seconds`` of
``BENCHMARK.json``).  It starts fresh interpreters one after another (closed
loop: one client, one process, one thread), each answering the whole query
battery built from the seed, until S seconds have passed and at least two
passes are done.  Every pass pays interpreter start, ``import littlelab`` and
cold library caches, as a CLI call does.  Times are scaled to a fixed
reference speed of the host (see ``child.py``).

With ``--trace 0`` the run reports the end-to-end metrics: times as means
over its passes, set-up time and memory as medians.  With ``--trace 1`` it
alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, their overhead against the
untraced ones, and fails its coverage self-test if the workload's stressed
layer saw no calls or the spans miss part of the traced wall time.

The last line of a workload's output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--workload
all`` each workload prints its own, so the last line is the last workload's.
The exit code is 1 when any query failed or the coverage self-test failed.
A copy of each result, with its environment record, is written to
``labbench/out``; ``--compare`` reads two such results (files or
directories) and refuses to compare when the kernel backend or the presence
of gmpy2 differ.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "labbench"
OUT = BENCH / "out"
WORKLOADS = ("dimension", "adversary", "replay", "dovetail")
STRESSED = {"dimension": "kernels", "adversary": "classes",
            "replay": "core", "dovetail": "machine"}
MIN_PASSES = 2
# Stop starting passes once a run could no longer end within 180 seconds.
RUN_LIMIT_S = 150.0
# Below this share of the traced wall time covered by layer spans, some
# library call ran outside every wrapper.
MIN_COVERAGE = 0.9


class PassError(RuntimeError):
    """A pass did not produce a report: crashed, or was stopped at the deadline."""


# ---------------------------------------------------------------------------
# Passes

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def run_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Start one cold pass and wait for its report, killing it at the deadline."""
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    command = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
               "1" if trace else "0", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        output = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise PassError(f"{workload} pass exited with code {code}")
    report = json.loads(output.strip().splitlines()[-1])
    report["raw_setup_s"] = setup_s
    report["setup_s"] = (setup_s - report["calibration_s"]) * report["setup_scale"]
    return report


def percentile(values: list[float], q: int, band: int = 5) -> float:
    """Mean of the values ranked from the (q - band)th to the (q + band)th
    percentile.  A plain percentile is one query's latency, and which query
    holds that rank changes with the seed; the band averages its neighbours."""
    ranked = sorted(values)
    last = len(ranked) - 1
    low = math.floor((q - band) / 100 * last)
    high = math.ceil((q + band) / 100 * last)
    return statistics.fmean(ranked[low:high + 1])


def end_to_end(passes: list[dict]) -> dict[str, float]:
    # Machine noise on a shared host comes in bursts lasting seconds, so a
    # median over a handful of passes flips between fast and slow spells;
    # the mean over the passes averages them.  Each query's latency is its
    # mean over the passes, and the percentiles are over the battery's queries.
    per_query = [statistics.fmean(times) for times in zip(*(p["query_s"] for p in passes))]
    return {
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "query_p50_ms": 1e3 * percentile(per_query, 50),
        "query_p90_ms": 1e3 * percentile(per_query, 90),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    # Counts repeat exactly from pass to pass; times are scaled to the
    # reference speed with the pass's own factor and averaged as above.
    def value(p: dict, name: str) -> float:
        scale = p["wall_s"] / sum(p["raw_query_s"]) if name.endswith(".self_s") else 1.0
        return p["layers"][name] * scale

    metrics = {name: statistics.fmean(value(p, name) for p in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_ratio"] = (statistics.fmean(p["wall_s"] for p in traced)
                                       / statistics.fmean(p["wall_s"] for p in untraced))
    return metrics


def coverage_problems(workload: str, traced: list[dict]) -> list[str]:
    """The layer-coverage self-test of a traced pass.  Calls made by the
    battery's sampler query do not count toward the stressed layer."""
    problems = []
    layer = STRESSED[workload]
    for p in traced:
        if not p["layer_calls"].get(layer):
            problems.append(f"{workload}: stressed layer {layer} recorded no calls "
                            "outside the sampler query")
        if p["layers"]["trace.coverage"] < MIN_COVERAGE:
            problems.append(f"{workload}: layer spans cover only "
                            f"{p['layers']['trace.coverage']:.1%} of the traced wall time")
    return problems


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S + 20
    untraced, traced, problems = [], [], []
    longest = 0.0
    while True:
        begun = time.perf_counter()
        try:
            untraced.append(run_pass(workload, seed, False, deadline))
            if trace:
                traced.append(run_pass(workload, seed, True, deadline))
        except PassError as exc:
            problems.append(str(exc))
            break
        now = time.perf_counter()
        longest = max(longest, now - begun)
        elapsed = now - start
        # Start another pass only if the run then ends nearer to the
        # measuring time than it would without it.
        done = len(untraced) >= (1 if trace else MIN_PASSES)
        if done and elapsed + elapsed / len(untraced) / 2 >= seconds:
            break
        if elapsed + longest > RUN_LIMIT_S:
            break
    passes = traced if trace else untraced
    if trace and traced:
        problems += coverage_problems(workload, traced)
    for p in untraced + traced:
        problems += p["failures"]
    attempted = sum(len(p["query_s"]) for p in untraced + traced)
    failed = sum(len(p["failures"]) for p in untraced + traced)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes),
        "queries": len(passes[0]["query_s"]) if passes else 0,
        "env": environment(passes[0]["env"] if passes else {}),
        "problems": problems,
        "attempted": attempted, "failed": failed,
        "metrics": {},
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_setup_s": [p["setup_s"] for p in passes],
        "pass_query_s": [p["query_s"] for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in passes],
        "pass_raw_setup_s": [p["raw_setup_s"] for p in passes],
    }
    if passes:
        result["metrics"] = per_layer(untraced, traced) if trace else end_to_end(untraced)
    return result


# ---------------------------------------------------------------------------
# Environment record

def environment(child: dict) -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), "commit": commit()}
    env.update(child)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
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


# ---------------------------------------------------------------------------
# Modes

def benchmark(workload: str, args, spec: dict) -> int:
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    env = result["env"]
    print(f"workload {workload}  seed {args.seed}  passes {result['passes']}  "
          f"queries/pass {result['queries']}  python {env.get('python')}  "
          f"backend {env.get('backend')}  gmpy2 {env.get('gmpy2')}  nproc {env['nproc']}")
    failed_ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  failed_ratio {failed_ratio:.4g}: output checks failed on {result['failed']} "
          f"of {result['attempted']} queries")
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")
    if not result["metrics"]:
        print("no pass completed; no result", file=sys.stderr)
        return 1
    for m in listed:
        print(f"  {m['name']:34s} {result['metrics'][m['name']]:.6g} {m['unit']}")
    if args.trace:
        times = {k[:-len(".self_s")]: v for k, v in result["metrics"].items()
                 if k.endswith(".self_s")}
        total = sum(times.values()) or 1.0
        print("  top layers by self time: " + ", ".join(
            f"{layer} {t / total:.1%}" for layer, t in
            sorted(times.items(), key=lambda item: -item[1])[:3]))
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 1 if result["problems"] else 0


def self_test(args, spec: dict) -> int:
    """One traced pass per workload: the coverage checks of every traced run,
    plus two that hold at the commit that added the benchmark and that a
    later optimisation may rightly break: each workload's stressed layer has
    the largest self time, and no listed per-layer metric reads 0."""
    problems = []
    for workload in WORKLOADS:
        try:
            p = run_pass(workload, args.seed, True, time.perf_counter() + RUN_LIMIT_S)
        except PassError as exc:
            problems.append(str(exc))
            continue
        problems += coverage_problems(workload, [p])
        problems += p["failures"]
        layer = STRESSED[workload]
        times = {k[:-len(".self_s")]: v for k, v in p["layers"].items() if k.endswith(".self_s")}
        top = max(times, key=times.get)
        share = times[layer] / (sum(times.values()) or 1.0)
        if top != layer:
            problems.append(f"{workload}: top layer by self time is {top}, not {layer}")
        # One pass has no untraced partner, so it has no overhead ratio.
        zeros = [m["name"] for m in spec["per_layer"]
                 if m["name"] != "trace.overhead_ratio" and not p["layers"].get(m["name"])]
        if zeros:
            problems.append(f"{workload}: per-layer metrics read 0: {', '.join(zeros)}")
        print(f"{workload}: {p['layer_calls'].get(layer, 0)} calls into {layer} outside "
              f"the sampler, {share:.1%} of self time (top: {top}), "
              f"coverage {p['layers']['trace.coverage']:.1%}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


# Flags a subcommand needs beyond its defaults.
CLI_REQUIRED = {
    "ldim": ["--builder", "thresholds"],
    "duel": ["--builder", "thresholds", "--learner", "sol"],
    "significance": ["--builder", "thresholds"],
    "build": ["--builder", "thresholds", "--out", "labbench/out/cli-build.json"],
    "convert": ["--builder", "thresholds"],
    "pac-eval": ["--builder", "thresholds"],
}


def cli_report(args) -> int:
    """Every subcommand once, in a fresh process; wall times are information only."""
    listing = subprocess.run(
        [sys.executable, "-c", "import argparse, json; from littlelab.cli import make_parser; "
         "print(json.dumps([list(a.choices) for a in make_parser()._actions "
         "if isinstance(a, argparse._SubParsersAction)][0]))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    rows = []
    for command in json.loads(listing.stdout):
        argv = [command] + CLI_REQUIRED.get(command, [])
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from littlelab.cli import main; "
             "sys.exit(main(sys.argv[1:]))"] + argv,
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=600)
        rows.append({"argv": argv, "wall_s": time.perf_counter() - start,
                     "exit": proc.returncode})
        print(f"{' '.join(argv):64s} {rows[-1]['wall_s']:8.2f} s  "
              + ("ok" if proc.returncode == 0 else f"EXIT {proc.returncode}"))
    (OUT / "cli-report.json").write_text(json.dumps(
        {"env": environment({}), "commands": rows}, indent=1) + "\n")
    return 1 if any(row["exit"] for row in rows) else 0


def load_results(path: Path) -> list[dict]:
    files = sorted(path.glob("*-trace*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(args) -> int:
    """Median of each metric per (workload, trace), old against new."""
    bounds = {m["name"]: m.get("bound") for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    old, new = load_results(Path(args.compare[0])), load_results(Path(args.compare[1]))
    for key in ("backend", "gmpy2"):
        seen = {str(r["env"].get(key)) for r in old + new}
        if len(seen) > 1:
            print(f"REFUSED: results differ in {key} ({', '.join(sorted(seen))}); "
                  "that changes dimension and replay by large factors", file=sys.stderr)
            return 2
    worse = 0
    groups = sorted({(r["workload"], r["trace"]) for r in old + new})
    for workload, trace in groups:
        a = [r for r in old if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in new if (r["workload"], r["trace"]) == (workload, trace)]
        if not a or not b:
            continue
        print(f"{workload} (trace {trace}): {len(a)} old runs, {len(b)} new runs")
        for name in {name: None for r in a for name in r["metrics"]}:
            xs = [r["metrics"][name] for r in a if name in r["metrics"]]
            ys = [r["metrics"][name] for r in b if name in r["metrics"]]
            if not ys:
                continue
            x, y = statistics.median(xs), statistics.median(ys)
            change = (y - x) / x if x else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and change > bound:
                flag, worse = "  WORSE than bound", worse + 1
            print(f"  {name:34s} {x:12.6g} -> {y:12.6g}  {change:+.1%}{flag}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--cli-report", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if not (ROOT / "src" / "littlelab" / "__init__.py").is_file():
        print(f"no littlelab source under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    # Byte-compile up front, so that no pass's set-up time includes compiling.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    if args.self_test:
        return self_test(args, spec)
    if args.cli_report:
        return cli_report(args)
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return max([benchmark(name, args, spec) for name in names])


if __name__ == "__main__":
    sys.exit(main())
