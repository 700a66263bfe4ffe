"""One workload run in a fresh interpreter: a closed loop with one client.

The next check starts only after the previous verdict.  The loop runs
whole passes of the workload until ``--seconds`` have passed and, when
untraced, at least 100 checks are done (or stops after ``--max-checks``
checks).  It prints one JSON line: a record per check (its time scaled
by ``speed.py``, and raw), the wall time, the peak resident memory and,
with ``--trace 1``, the span aggregates.

In-process checks get a time limit from ``SIGALRM``; ``cli-mix``
commands get it from the subprocess timeout.  The parent caps this
process's address space; a ``MemoryError`` ends only the check that
raised it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

from run import CHECK_LIMIT_S, ROOT, cap_address_space, child_env, digests_file
from speed import Reference
from tracing import NULL_TRACER, Tracer

sys.path.insert(0, str(ROOT / "src"))

import twistbench  # noqa: E402

if Path(twistbench.__file__).resolve().parent != ROOT / "src" / "twistbench":
    sys.exit(f"twistbench imported from {twistbench.__file__}, not from this checkout")

#: checks a timed run makes at least, so that ten lie beyond its 90th percentile
MIN_CHECKS = 100

OK, WRONG, TIMEOUT, MEMORY, ERROR, UNSTABLE = (
    "ok", "wrong-verdict", "timeout", "memory", "error", "unstable-stdout",
)


class CheckTimeout(BaseException):
    """Raised by SIGALRM in a check that ran past its limit."""


def _alarm(signum, frame):
    raise CheckTimeout()


# ---------------------------------------------------------------------------
# cli-mix checks


class CliRunner:
    """Runs ``twistbench`` items (or, traced or with ``standin``, the
    benchmark's stand-in for the same item) and keeps the stdout digest of
    every item of a real command."""

    def __init__(self, tracer, standin: bool = False):
        self.limit_s = CHECK_LIMIT_S["cli-mix"]
        self.tracer = tracer
        self.standin = standin or tracer.enabled
        self.env = child_env()
        self.hashes_file = digests_file()
        self.known = {}
        if self.hashes_file.exists():
            self.known = json.loads(self.hashes_file.read_text())
        self.seen: dict = {}
        self.standin_rows: list = []

    def _spawn(self, argv: list):
        try:
            return subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True,
                timeout=self.limit_s, preexec_fn=cap_address_space,
            )
        except subprocess.TimeoutExpired:
            raise CheckTimeout() from None

    def run(self, item) -> tuple:
        """(verdict, outcome) of one item."""
        from climix import EXIT_OF

        if self.standin:
            traced = self.tracer.enabled
            spawned = time.perf_counter()
            proc = self._spawn([sys.executable, str(ROOT / "perfbench" / "cli_standin.py"), json.dumps(
                {"kind": item.kind, "params": item.params, "trace": traced})])
            if proc.returncode != 0 or not proc.stdout:
                return None, ERROR
            report = json.loads(proc.stdout.decode().splitlines()[-1])
            if traced:
                report["started"] = report["imported"] - spawned
                report["check"] = self.tracer.check_id
                self.standin_rows.append(report)
            code = report["exit"]
        else:
            proc = self._spawn([sys.executable, "-m", "twistbench.cli", *item.argv])
            code = proc.returncode
            if b"Traceback (most recent call last)" in proc.stderr or code not in EXIT_OF:
                return EXIT_OF.get(code), ERROR
            digest = hashlib.sha256(proc.stdout)
            if item.out_file:
                digest.update((ROOT / item.out_file).read_bytes())
            digest = digest.hexdigest()
            first = self.seen.setdefault(item.id, self.known.get(item.id, digest))
            if digest != first:
                return EXIT_OF[code], UNSTABLE
        verdict = EXIT_OF.get(code)
        if code not in item.exits:
            return verdict, WRONG if verdict else ERROR
        return verdict, OK

    def save(self) -> None:
        merged = dict(self.known)
        merged.update(self.seen)
        tmp = self.hashes_file.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, sort_keys=True))
        os.replace(tmp, self.hashes_file)


# ---------------------------------------------------------------------------
# the loop


def in_process_passes(workload: str, seed: int):
    import inproc

    for checks in inproc.passes(workload, seed):
        yield [(check.kind, check.run, check.expect) for check in checks]


def cli_passes(seed: int):
    import climix

    all_items = climix.items(ROOT, seed)
    k = 0
    while True:
        yield [(item.kind, item, None) for item in climix.shuffled_pass(all_items, seed, k)]
        k += 1


def run_check(kind, run, expect, limit_s: float, tracer, runner) -> tuple:
    """(verdict, outcome) of one check."""
    verdict = None
    try:
        if runner is not None:
            return runner.run(run)
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            verdict = run(tracer)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return verdict, OK if verdict in expect else WRONG
    except CheckTimeout:
        return verdict, TIMEOUT
    except MemoryError:
        return verdict, MEMORY
    except Exception as exc:  # a traceback in the program is a failed check
        print(f"{kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return verdict, ERROR
    finally:
        tracer.unwind()


def run_loop(passes, seconds: float, max_checks: int | None, limit_s: float, tracer, runner, reference):
    """Whole passes until ``seconds`` have passed (and, untraced,
    ``MIN_CHECKS`` checks are done), or exactly ``max_checks`` checks;
    whole passes give every run the same mix.

    A record is ``[kind, seconds, verdict, outcome, pass number, start]``;
    ``reference`` is sampled between checks (see ``speed.py``)."""
    records = []
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    for number, checks in enumerate(passes):
        for kind, run, expect in checks:
            if max_checks is not None and len(records) >= max_checks:
                return records
            reference.sample()
            tracer.check_id = len(records)
            t0 = time.perf_counter()
            verdict, outcome = run_check(kind, run, expect, limit_s, tracer, runner)
            records.append([kind, time.perf_counter() - t0, verdict, outcome, number, t0])
        enough = tracer.enabled or len(records) >= MIN_CHECKS
        if max_checks is None and enough and time.perf_counter() - start >= seconds:
            return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-checks", type=int, default=None)
    parser.add_argument("--standin", type=int, choices=(0, 1), default=0,
                        help="cli-mix: run the stand-in, not the command, also untraced")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else NULL_TRACER
    runner = None
    if args.workload == "cli-mix":
        runner = CliRunner(tracer, bool(args.standin))
        passes = cli_passes(args.seed)
    else:
        passes = in_process_passes(args.workload, args.seed)
    reference = Reference(commands=runner is not None)
    start = time.perf_counter()
    limit = CHECK_LIMIT_S[args.workload]
    records = run_loop(passes, args.seconds, args.max_checks, limit, tracer, runner, reference)
    wall = time.perf_counter() - start
    factors = reference.factors([r[5] for r in records])
    records = [
        [kind, raw * f, verdict, outcome, raw, number]
        for (kind, raw, verdict, outcome, number, _), f in zip(records, factors)
    ]

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if runner else resource.RUSAGE_SELF)
    result = {
        "records": records,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if runner is not None:
        runner.save()
        for row in runner.standin_rows:
            factor = factors[row["check"]]
            row["started"] *= factor
            for agg in row["spans"].values():
                agg["total_s"] *= factor
                agg["self_s"] *= factor
        result["standin_rows"] = runner.standin_rows
    if tracer.enabled:
        result["spans"] = tracer.summary(factors)
        result["counts"] = tracer.counts
        result["maxima"] = tracer.maxima
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
