"""twistbench benchmark: one workload, one run.

    python3 perfbench/run.py --workload psi-sweep --seed 1 --seconds 20 --trace 0

Run from any directory of a checkout; the program is imported from the
checkout's ``src``.  With ``--trace 0`` the run measures set-up time in
fresh interpreters, then runs the workload's closed loop in a fresh
worker process for ``--seconds`` (in whole passes, at least 100
checks) and reports the end-to-end metrics.  With ``--trace 1`` it runs
the loop traced for half the time, replays the same checks untraced in
another fresh worker to measure the tracing overhead, and reports the
per-layer metrics.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any check failed and 2 when the run could not
start.  See ``perfbench/NOTES.md`` for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Reference, setup_factor, timed_command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("psi-sweep", "hurwitz-churn", "hurwitz-search", "cli-mix")
#: per-check time limit, seconds: in-process checks and single commands
CHECK_LIMIT_S = {"psi-sweep": 20.0, "hurwitz-churn": 20.0, "hurwitz-search": 20.0, "cli-mix": 10.0}
#: address-space cap of every worker and command process
ADDRESS_SPACE_CAP = 1 << 30
SETUP_REPEATS = 11
#: a run ends within this many seconds, its workers stopped if need be
RUN_BUDGET_S = 170
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import twistbench; "
    "from twistbench import canonical, laminations; "
    "canonical.canonical_sigma_signs(); laminations.derivation_report()"
)
WORK_DIR = ".perfbench_work"
#: the member of the 3-strand family (s1 s2^-1)^k that the traced cli-mix
#: run tries once; its free-group cross-check is far beyond the limit
OVER_LIMIT_K = 16

#: spans whose total time per check is a per-layer metric ``<span>_s``
SPANS = (
    "surface.configure",
    "homology.model_build",
    "homology.psi_reference",
    "homology.twist_product",
    "homology.symplectic_check",
    "coxeter.chain_action",
    "canonical.calibrate",
    "factorization.apply_script",
    "factorization.product_matrix",
    "factorization.search",
    "factorization.greedy",
    "factorization.certificate",
    "factorization.replay",
    "laminations.derive",
    "braids.equal",
    "braids.artin",
    "braids.manfredini",
    "monodromy.lift",
    "invariants.eval",
    "serialize.emit",
)
#: counters whose total per check is a per-layer metric
COUNTS = (
    "homology.twist_letters",
    "coxeter.word_letters",
    "factorization.moves",
    "factorization.expansion_letters",
    "factorization.search_key_calls",
    "factorization.certificate_moves",
    "braids.artin_image_letters",
    "monodromy.lift_letters",
    "serialize.bytes",
)
#: counters kept as a maximum over the run
MAXIMA = ("factorization.max_conjugator_len", "factorization.reduced_word_len")
CLI_KINDS = (
    "verify-psi", "auroux-emit", "auroux-replay", "hurwitz-replay",
    "braid-eq", "braid-manfredini", "invariants", "export",
)


def fail_to_start(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    """Environment of every process a run starts: the checkout's program
    first on the path, the default search budget."""
    env = dict(os.environ)
    env.pop("TWISTBENCH_BUDGET", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def digests_file() -> Path:
    """Where the stdout digests of ``cli-mix`` items are kept across runs:
    one file per state of the program's source tree, so that only runs of
    the same code are compared."""
    tree = hashlib.sha256()
    src = ROOT / "src" / "twistbench"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            data = path.read_bytes()
            tree.update(f"{path.relative_to(src).as_posix()}\0{len(data)}\0".encode())
            tree.update(data)
    return ROOT / WORK_DIR / f"stdout-digests-{tree.hexdigest()[:16]}.json"


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def measure_setup() -> tuple:
    """Median over fresh interpreters doing the lazy set-up: scaled wall
    time (each set-up by its own reference, ``speed.setup_factor``) and
    raw wall time."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        factor = setup_factor()
        raw.append(timed_command([sys.executable, "-c", SETUP_CODE, str(ROOT / "src")], cwd=ROOT, env=child_env()))
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), statistics.median(raw)


def run_worker(args, seconds: float, trace: int, max_checks: int | None = None, standin: bool = False) -> dict:
    """Run the worker and return its result; it is stopped, with every
    command it started, when the run's time budget is spent."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if max_checks is not None:
        argv += ["--max-checks", str(max_checks)]
    if standin:
        argv += ["--standin", "1"]
    budget = args.deadline - time.monotonic()
    # a process group of its own, so that the worker and any command it
    # started end together when the worker is stopped
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True,
        preexec_fn=None if args.workload == "cli-mix" else cap_address_space,
    )
    try:
        out, _ = proc.communicate(timeout=max(budget, 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(records: list) -> dict:
    """Counts of a run's check records ``[kind, seconds, verdict, outcome]``."""
    attempted = len(records)
    failed = sum(1 for r in records if r[3] != "ok")
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": sum(1 for r in records if r[3] == "wrong-verdict"),
        "decided": sum(1 for r in records if r[2] in ("pass", "fail")),
        "outcomes": sorted({r[3] for r in records if r[3] != "ok"}),
    }


def kind_table(records: list) -> list:
    """Per check kind: count, median, maximum and share of the run's time."""
    lines = []
    busy = sum(r[1] for r in records) or 1.0
    kinds = sorted({r[0] for r in records})
    for kind in kinds:
        times = [r[1] for r in records if r[0] == kind]
        lines.append(
            f"  {kind:18s} n={len(times):5d}  median={statistics.median(times):.4f} s"
            f"  max={max(times):.4f} s  share={sum(times) / busy:6.1%}"
        )
    return lines


def latency(times: list) -> tuple:
    """Median, 90th percentile and the number of samples beyond it."""
    p90 = percentile(times, 90) if len(times) >= 2 else times[0]
    return statistics.median(times), p90, sum(1 for t in times if t > p90)


def end_to_end(args) -> tuple:
    setup, setup_raw = measure_setup()
    result = run_worker(args, args.seconds, 0)
    records = result["records"]
    counts = summarize(records)
    n = len(records)
    passes: dict = {}
    raw_passes: dict = {}
    for r in records:
        passes.setdefault(r[5], []).append(r[1])
        raw_passes.setdefault(r[5], []).append(r[4])
    p50, p90, beyond = latency([r[1] for r in records])
    raw_p50, raw_p90, _ = latency([r[4] for r in records])
    metrics = {
        "setup_s": (setup, "s"),
        # the median pass: a stretch of the run slowed by other load on
        # the machine moves it less than a mean over the whole run
        "checks_per_s": (statistics.median(len(t) / sum(t) for t in passes.values()), "1/s"),
        "verdict_s.p50": (p50, "s"),
        "verdict_s.p90": (p90, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    lines = [
        f"workload {args.workload}, seed {args.seed}: {n} checks in {len(passes)} passes, "
        f"{result['wall_s']:.2f} s, closed loop with one client; {beyond} samples beyond p90",
        *(f"  {name:18s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()),
        f"  {'failed_ratio':18s} {counts['failed'] / n:.6g} ratio ({counts['failed']}/{n})",
        f"  {'decided_ratio':18s} {counts['decided'] / n:.6g} ratio ({counts['decided']}/{n})",
        f"raw wall times: setup {setup_raw:.4g} s, "
        f"{statistics.median(len(t) / sum(t) for t in raw_passes.values()):.4g} checks/s, "
        f"p50 {raw_p50:.4g} s, p90 {raw_p90:.4g} s",
        "per check kind (scaled seconds):",
        *kind_table(records),
    ]
    if counts["outcomes"]:
        lines.append(f"failures: {', '.join(counts['outcomes'])}")
    return metrics, counts, lines


def over_limit_probe() -> tuple:
    """Run the documented over-limit braid family member once: (still over
    the limit, failed, how it ended).  It counts as fixed only when it
    exits 0 without a traceback; a time limit or the address-space cap
    leaves it over the limit, and any other ending is a failed check."""
    word = json.dumps([1, -2] * OVER_LIMIT_K)
    argv = [sys.executable, "-m", "twistbench.cli", "braid", "eq", "--n", "3", "--lhs", word, "--rhs", word]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True,
            timeout=CHECK_LIMIT_S["cli-mix"], preexec_fn=cap_address_space,
        )
    except subprocess.TimeoutExpired:
        return 1, 0, f"time limit after {time.perf_counter() - t0:.1f} s"
    took = time.perf_counter() - t0
    if b"MemoryError" in proc.stderr:
        return 1, 0, f"address-space cap after {took:.1f} s"
    if proc.returncode == 0 and b"Traceback" not in proc.stderr:
        return 0, 0, f"fixed: exit 0 after {took:.1f} s"
    return 1, 1, f"failed: exit {proc.returncode} after {took:.1f} s{', traceback' if b'Traceback' in proc.stderr else ''}"


def merge_spans(rows: list) -> tuple:
    spans: dict = {}
    counts: dict = {}
    maxima: dict = {}
    for row in rows:
        for name, agg in row["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += agg[key]
        for name, value in row["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in row["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), value)
    return spans, counts, maxima


def per_layer(args) -> tuple:
    traced = run_worker(args, args.seconds / 2, 1)
    records = traced["records"]
    n = len(records)
    plain = run_worker(args, args.seconds, 0, max_checks=n)
    # the tracing overhead compares the same program with tracing on and
    # off: on cli-mix, that is the stand-in, not the real commands
    bare = run_worker(args, args.seconds, 0, max_checks=n, standin=True) if args.workload == "cli-mix" else plain
    rows = traced.get("standin_rows") or [traced]
    spans, counts, maxima = merge_spans(rows)

    def total(span: str) -> float:
        return spans.get(span, {}).get("total_s", 0.0)

    metrics = {f"{span}_s": (total(span) / n, "s") for span in SPANS}
    search_self = spans.get("factorization.search", {}).get("self_s", 0.0)
    metrics["factorization.search_key_s"] = ((total("factorization.search") - search_self) / n, "s")
    metrics["factorization.search_self_s"] = (search_self / n, "s")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0) / n, "count")
    for name in MAXIMA:
        metrics[name] = (maxima.get(name, 0), "letters")
    searches = counts.get("factorization.searches", 0)
    metrics["factorization.found_ratio"] = (counts.get("factorization.found", 0) / searches if searches else 0.0, "ratio")
    starts = [row["started"] for row in traced.get("standin_rows", [])]
    metrics["cli.process_start_s"] = (statistics.mean(starts) if starts else 0.0, "s")
    for kind in CLI_KINDS:
        times = [r[1] for r in plain["records"] if r[0] == kind]
        metrics[f"cli.command_s.{kind}"] = (statistics.mean(times) if times else 0.0, "s")
    counted = summarize(records)
    metrics["checks.decided_ratio"] = (counted["decided"] / n, "ratio")
    metrics["checks.failed_ratio"] = (counted["failed"] / n, "ratio")
    probe_lines = []
    over = 0
    if args.workload == "cli-mix":
        over, probe_failed, how = over_limit_probe()
        probe_lines.append(f"over-limit probe braid eq (s1 s2^-1)^{OVER_LIMIT_K} on 3 strands: {how}")
        counted["attempted"] += 1
        if probe_failed:
            counted["failed"] += 1
            counted["outcomes"].append("over-limit-probe-error")
    metrics["cli.over_limit_items"] = (over, "count")
    metrics["trace.checks"] = (n, "count")
    traced_s = sum(r[1] for r in records)
    plain_s = sum(r[1] for r in bare["records"])
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")

    lines = [
        f"workload {args.workload}, seed {args.seed}: {n} checks take {traced_s:.2f} s traced "
        f"and {plain_s:.2f} s untraced (scaled seconds; on cli-mix, both through the stand-in); "
        "layer times are per check",
        "span                             calls     total s      self s   self share",
    ]
    busy = sum(agg["self_s"] for agg in spans.values()) or 1.0
    for name in sorted(spans, key=lambda s: -spans[s]["self_s"]):
        agg = spans[name]
        lines.append(
            f"  {name:30s} {agg['calls']:7d} {agg['total_s']:11.4f} {agg['self_s']:11.4f}"
            f" {agg['self_s'] / busy:10.1%}"
        )
    lines += probe_lines
    if counted["outcomes"]:
        lines.append(f"failures: {', '.join(counted['outcomes'])}")
    return metrics, counted, lines


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One run: the result object the run prints, its check counts and its
    report lines."""
    args = argparse.Namespace(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        deadline=time.monotonic() + RUN_BUDGET_S,
    )
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    metrics, counts, lines = (per_layer if trace else end_to_end)(args)
    result = {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, counts, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        return fail_to_start(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "twistbench" / "__init__.py").is_file():
        return fail_to_start(f"no program to measure: {ROOT / 'src' / 'twistbench'} is missing")
    if args.seconds <= 0:
        return fail_to_start("--seconds must be positive")
    # SIGTERM unwinds like an exception, so the worker's group is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result, counts, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.SubprocessError, ValueError, OSError) as err:
        return fail_to_start(f"run did not complete: {err}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 1 if counts["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
