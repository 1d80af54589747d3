"""rdasim benchmark: time to a checked solution through the real CLI.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: one command at a time, each
command a fresh ``python -m rdasim.cli`` process with the working tree's
``src`` on PYTHONPATH and BLAS/OpenMP pinned to one thread.  For
``--seconds`` it repeats passes over the workload's commands, checks every
command's outputs against the workload's correctness gates, and requires
the deterministic outputs of every pass to be byte-identical.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
the median set-up time of a fresh interpreter, and the peak RSS of any
child.  ``--trace 1`` instead alternates untraced and traced in-process
passes (``bench/inproc.py``) and reports the per-layer metrics of
``tracing.layer_metrics``, the tracing overhead and the CPU time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without ``src/``
and ``configs/`` there is nothing to measure: the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = Path(".bench_work")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"
SETUP_PROBES = 5
MIN_PASSES = 2           # the determinism check compares passes
DEADLINE_S = 170.0       # the whole invocation ends within 180 s


@dataclass
class Child:
    wall_s: float
    code: int
    maxrss_mb: float
    cpu_s: float


@dataclass
class Pass:
    wall_s: float
    attempted: int
    failed: int
    digest: str
    children: list
    result: dict | None = None


def spawn(argv, env, work: Path, deadline: float) -> Child:
    """Run one child to completion; its rusage comes from wait4."""
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"command {argv[1:]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                 usage.ru_utime + usage.ru_stime)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def gate_commands(workload, command_lists, codes, out_dir) -> int:
    """Failed commands of a pass: a nonzero exit or a missed correctness gate."""
    failed = 0
    for args, code in zip(command_lists, codes):
        problems = ([f"exit code {code}"] if code != 0
                    else workloads.gate(workload, args[0], out_dir))
        for problem in problems:
            print(f"gate failed after {args[0]}: {problem}", file=sys.stderr)
        failed += bool(problems)
    return failed


def cli_pass(workload, config, seed, env, work, deadline) -> Pass:
    """Each command as a fresh CLI process; the pass wall is the sum of theirs."""
    out_dir = fresh_dir(work / "out")
    command_lists = workloads.commands(workload, config, out_dir, seed)
    children = [spawn([sys.executable, "-m", "rdasim.cli", *args], env, work, deadline)
                for args in command_lists]
    failed = gate_commands(workload, command_lists, [c.code for c in children], out_dir)
    return Pass(sum(c.wall_s for c in children), len(children), failed,
                workloads.digest_outputs(out_dir), children)


def inproc_pass(workload, config, seed, env, work, deadline, traced: bool) -> Pass:
    """All commands through rdasim.cli.main in one fresh interpreter."""
    out_dir = fresh_dir(work / "out")
    command_lists = workloads.commands(workload, config, out_dir, seed)
    result_path = work / "inproc.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "inproc.py"), str(result_path),
            *(["--trace"] if traced else []), "--", json.dumps(command_lists)]
    child = spawn(argv, env, work, deadline)
    result = json.loads(result_path.read_text()) if child.code == 0 else None
    codes = result["exit_codes"] if result else [None] * len(command_lists)
    failed = gate_commands(workload, command_lists, codes, out_dir)
    wall = result["wall_s"] if result else child.wall_s
    return Pass(wall, len(command_lists), failed, workloads.digest_outputs(out_dir),
                [child], result)


def repeat(make_pass, seconds: float, deadline: float, per_round: int = 1) -> list:
    """Passes until the next round would overrun `seconds` (at least MIN_PASSES)."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(make_pass(len(passes)))
        done = len(passes)
        if done % per_round:
            continue
        elapsed = time.perf_counter() - started
        next_round = elapsed * per_round / done
        if done >= MIN_PASSES and elapsed + next_round > seconds:
            return passes
        if time.monotonic() + next_round > deadline:
            return passes


def setup_probes(config, env, work, deadline, timed: int) -> tuple[list, str]:
    """One warm-up probe (compiles bytecode, finds the package), then `timed` more."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config)]
    walls, rdasim_file = [], None
    for k in range(timed + 1):
        child = spawn(argv, env, work, deadline)
        if child.code != 0:
            raise SystemExit(f"set-up probe failed with exit code {child.code}")
        if k == 0:
            rdasim_file = json.loads((work / "stdout.txt").read_text())["rdasim_file"]
        else:
            walls.append(child.wall_s)
    return walls, rdasim_file


def end_to_end(workload, config, seed, seconds, env, work, deadline):
    walls, rdasim_file = setup_probes(config, env, work, deadline, SETUP_PROBES)
    passes = repeat(lambda k: cli_pass(workload, config, seed, env, work, deadline),
                    seconds, deadline)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(walls),
        "peak_rss_mb": max(c.maxrss_mb for p in passes for c in p.children),
    }
    print(f"passes: {len(passes)}  pass walls (s): {[round(p.wall_s, 4) for p in passes]}")
    print(f"set-up probes (s): {[round(w, 4) for w in walls]}")
    return passes, metrics, rdasim_file


def per_layer(workload, config, seed, seconds, env, work, deadline):
    _, rdasim_file = setup_probes(config, env, work, deadline, 0)
    passes = repeat(lambda k: inproc_pass(workload, config, seed, env, work, deadline,
                                          traced=bool(k % 2)),
                    seconds, deadline, per_round=2)
    plain = passes[0::2]
    with_spans = [p for p in passes[1::2] if p.result is not None]
    if not with_spans:
        return passes, {}, rdasim_file
    per_pass = [tracing.layer_metrics(p.result["spans"], p.result["counters"])
                for p in with_spans]
    # median_low: every reported value, counts included, is one that was observed
    metrics = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["proc.cpu_s"] = statistics.median(c.cpu_s for p in plain for c in p.children)
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in with_spans)
                                   - statistics.median(p.wall_s for p in plain))
    last = with_spans[-1].result["spans"]
    print(f"pairs (untraced, traced): {len(with_spans)}")
    print("self time per layer, last traced pass (s):")
    for layer, own in sorted(tracing.layer_self_times(last).items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {own:10.4f}")
    return passes, metrics, rdasim_file


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             env=env, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over src/**/*.py by relative path: names the measured tree without git."""
    h = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        h.update(path.as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(env: dict, rdasim_file: str) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "threads": {var: env[var] for var in THREAD_VARS},
        "rdasim_file": rdasim_file,
    }


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    needed = [Path("src/rdasim/cli.py"), workloads.EPIDEMIC_CONFIG, workloads.REVERSIBLE_CONFIG]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"run from the repository root; missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    env = child_env()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        config = workloads.prepare(args.workload, args.seed, work / "inputs")
        measure = per_layer if args.trace else end_to_end
        passes, metrics, rdasim_file = measure(args.workload, config, args.seed,
                                               args.seconds, env, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    if Path(rdasim_file).resolve().parent != Path("src/rdasim").resolve():
        print(f"measured {rdasim_file}, not this working tree's src/", file=sys.stderr)
        return 3
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        print(f"outputs differ between passes: {sorted(digests)}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    absent = sorted(set(units) - set(metrics))
    if absent:
        print(f"metrics not measured: {absent}", file=sys.stderr)
        return 3

    print("provenance: " + json.dumps(provenance(env, rdasim_file), sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  commands {attempted}  "
          f"failed {failed}  output digest {sorted(digests)[0][:16]}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
