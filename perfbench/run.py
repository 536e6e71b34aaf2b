"""Seeded closed-loop benchmark of the qborel command line.

    python3 perfbench/run.py --workload finite_fm --seed 1 --seconds 35 --trace 0

One client in one process, no threads: for every generated instance the
benchmark certifies it through the in-process entry point
`qborel.cli.main` (`<cmd> --input ... --out ...`), replays the
certificate (`verify --input ...`), and checks the outcome against the
answer the generator knows (see workloads.py). A failure of any kind is
counted and the loop goes on. `--seconds` sets how many rounds of
instances run (ROUND_SECONDS); a round is never cut short, so every run
carries the workload's whole size mix.

With `--trace 0` the last line reports the end-to-end metrics. With
`--trace 1` a fixed number of rounds runs, each instance once untraced
and once with every layer wrapped (spans.py), and the last line reports
the per-layer metrics; the spans go to `.perfbench_run/spans-<workload>-<seed>.tsv`.
The metric names and units printed are those listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Spec, make_round, round_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

# seconds one round takes on the reference machine (2 vCPUs of a shared
# 2.1 GHz host); a run of --seconds S does round(S / this) rounds, so both
# sides of a comparison do the same work
ROUND_SECONDS = {"finite_fm": 3.75, "int_span": 6.0, "closure_chain": 2.2}
# no round starts after this many seconds: a far slower build still ends
# within the 180 s a run may take
LIMIT_S = 120
# rounds of a traced run: fixed, so its counts repeat exactly for a seed
TRACE_ROUNDS = {"finite_fm": 2, "int_span": 2, "closure_chain": 3}
# fresh interpreters timed for setup_s
SETUP_SAMPLES = 15
# median calibration_s() on the reference machine at rest
CALIBRATION_S = 0.0034
# calibration samples on either side of a timed call that set its speed
SPEED_WINDOW = 8
# the one failure qborel is known to have on these inputs
KNOWN_FAILURE = "generate raised TypeError on unrelated endpoints"


@dataclass
class Record:
    command: str
    bucket: str
    certify_s: float
    verify_s: float | None
    failure: str | None
    # calibration_s() taken just before each timed call
    cal_certify: float
    cal_verify: float | None


def calibration_s() -> float:
    """Time of a fixed pure-Python routine that shares no code with qborel.

    It does set, dict, tuple and sort work like qborel's own, so its time
    follows the speed the host gives this process at the moment.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(30):
        s = {(i, j) for j in range(200)}
        d = {j: (j * i) % 97 for j in range(200)}
        total += len(s) + sum(d.values()) + len(sorted(s, reverse=True))
    return time.perf_counter() - t0


def reference_times(records: list[Record]) -> list[tuple[float, float | None]]:
    """(certify, verify) times of each record, scaled to the reference speed.

    Each time is multiplied by CALIBRATION_S over the median of the
    calibration samples taken around it (SPEED_WINDOW on either side, in
    run order). A shared host whose speed drifts over minutes then
    reports the same numbers; on the reference machine at rest the
    factor is 1.
    """
    cals = []
    for r in records:
        cals.append(r.cal_certify)
        if r.verify_s is not None:
            cals.append(r.cal_verify)

    def scaled(raw, i):
        return raw * CALIBRATION_S / statistics.median(
            cals[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1]
        )

    out, i = [], 0
    for r in records:
        certify = scaled(r.certify_s, i)
        i += 1
        verify = None
        if r.verify_s is not None:
            verify = scaled(r.verify_s, i)
            i += 1
        out.append((certify, verify))
    return out


def call_cli(cli, argv):
    """Run the CLI in-process: (exit code, stdout, raw exception or None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as e:
        return (e.code if isinstance(e.code, int) else 2), out.getvalue(), None
    except Exception as e:  # a traceback escaping the CLI is a counted failure
        return None, out.getvalue(), e
    return code, out.getvalue(), None


def _error_kind(stdout: str) -> str | None:
    try:
        return json.loads(stdout)["error"]["kind"]
    except (ValueError, KeyError, TypeError):
        return None


def judge(spec: Spec, certified, cert_path: Path, replay) -> str | None:
    """None when the outcome matches the known answer, else the failure."""
    code, stdout, exc = certified
    if exc is not None:
        if spec.unrelated and spec.command == "generate" and isinstance(exc, TypeError):
            return KNOWN_FAILURE
        return f"{spec.command} raised {type(exc).__name__}"
    if code == 2:
        return f"{spec.command} exited with a usage error"
    error = _error_kind(stdout)
    if spec.expect_error:
        if error == spec.expect_error:
            return None
        return f"{spec.command} gave {error or f'exit {code}'}, not {spec.expect_error}"
    if error:
        # no exact kind is known for a chain between unrelated points
        return None if spec.unrelated else f"{spec.command} raised {error}"
    if code != 0:
        return f"{spec.command} failed a stored check"
    if replay is None:
        return f"{spec.command} wrote no certificate"
    try:
        reason = spec.oracle(json.loads(cert_path.read_text(encoding="utf-8"))["outputs"])
    except (KeyError, TypeError, ValueError) as e:
        reason = f"unreadable outputs ({type(e).__name__})"
    if reason:
        return f"{spec.command} oracle: {reason}"
    rcode, _, rexc = replay
    if rexc is not None:
        return f"verify raised {type(rexc).__name__}"
    if rcode != 0:
        return "verify disagrees with the certificate"
    return None


class Runner:
    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.instance = 0
        # per-process names, so runs sharing a checkout cannot clash
        self.input = WORK / f"instance-{os.getpid()}.qb"
        self.cert = WORK / f"certificate-{os.getpid()}.json"

    def close(self) -> None:
        self.input.unlink(missing_ok=True)
        self.cert.unlink(missing_ok=True)

    def attempt(self, spec: Spec) -> Record:
        if self.tracer is not None:
            self.tracer.instance = self.instance
        self.instance += 1
        self.input.write_text(spec.text, encoding="utf-8")
        self.cert.unlink(missing_ok=True)
        argv = [spec.command, "--input", str(self.input), "--out", str(self.cert), *spec.args]
        # each CLI run is a fresh process for a user: start from a collected heap
        gc.collect()
        cal_certify = calibration_s()
        t0 = time.perf_counter()
        certified = call_cli(self.cli, argv)
        certify_s = time.perf_counter() - t0
        replay, verify_s, cal_verify = None, None, None
        if self.cert.exists():
            gc.collect()
            cal_verify = calibration_s()
            t0 = time.perf_counter()
            replay = call_cli(self.cli, ["verify", "--input", str(self.cert)])
            verify_s = time.perf_counter() - t0
        failure = judge(spec, certified, self.cert, replay)
        return Record(
            spec.command, spec.bucket, certify_s, verify_s, failure, cal_certify, cal_verify
        )


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of all order statistics: it
    draws on every sample near the quantile rather than one or two, so
    it moves less from run to run than the plain sample quantile.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule per order statistic
    weights = [
        sum(
            math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
            for x in ((i + (k + 0.5) / steps) / n for k in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def cli_wall(records: list[Record]) -> float:
    return sum(r.certify_s + (r.verify_s or 0.0) for r in records)


def setup_s() -> float:
    """Median time a fresh interpreter takes to import qborel.cli, at reference speed."""
    code = "import time; t = time.perf_counter(); import qborel.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples, cals = [], []
    for _ in range(SETUP_SAMPLES):
        cals.append(calibration_s())
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples) * CALIBRATION_S / statistics.median(cals)


def measured(runner: Runner, workload: str, seed: int, seconds: float):
    planned = max(2, round(seconds / ROUND_SECONDS[workload]))
    records, rounds = [], 0
    start = time.perf_counter()
    while rounds < planned and time.perf_counter() - start < LIMIT_S:
        records += [runner.attempt(s) for s in make_round(workload, seed, rounds, planned)]
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = reference_times(records)
    # latencies are those of right answers; failures count in ok_share
    good = [t for r, t in zip(records, times) if r.failure is None]
    certify = [c for c, _ in good]
    verify = [v for _, v in good if v is not None]
    metrics = {
        "setup_s": setup_s(),
        "certify_s_p50": quantile(certify, 0.5),
        "certify_s_p90": quantile(certify, 0.9),
        "verify_s_p50": quantile(verify, 0.5),
        "verify_s_p90": quantile(verify, 0.9),
        "instances_per_s": len(good) / sum(c + (v or 0.0) for c, v in times),
        "peak_rss_mb": peak_rss_mb,
        "ok_share": len(good) / len(records),
    }
    raw = [r.certify_s for r in records]
    print(f"rounds {rounds} of {planned}, instances {len(records)}, "
          f"certificates replayed {len(verify)}")
    print(f"raw wall: certify p50 {quantile(raw, 0.5):.4f} s, p90 {quantile(raw, 0.9):.4f} s, "
          f"{len(records) / cli_wall(records):.3f} instances/s; host speed "
          f"{CALIBRATION_S / statistics.median(r.cal_certify for r in records):.3f} x reference")
    print_scaling([r for r in records if r.failure is None], certify)
    return records, metrics


def traced(runner: Runner, workload: str, seed: int):
    from spans import Tracer

    n = TRACE_ROUNDS[workload]
    specs = [s for r in range(n) for s in make_round(workload, seed, r, n)]
    tracer = Tracer()
    plain, records = [], []
    for i, spec in enumerate(specs):
        # each instance runs untraced and traced; alternate which goes first
        for on in (False, True) if i % 2 == 0 else (True, False):
            if not on:
                plain.append(runner.attempt(spec))
                continue
            tracer.install()
            runner.tracer = tracer
            records.append(runner.attempt(spec))
            tracer.uninstall()
            runner.tracer = None
    wall_plain, wall_traced = cli_wall(plain), cli_wall(records)
    metrics = dict(tracer.ratios())
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    metrics["trace.coverage"] = sum(tracer.self_s) / wall_plain
    spans_path = WORK / f"spans-{workload}-{seed}.tsv"
    count = tracer.write(spans_path)
    print(f"rounds {n}, instances {len(records)}, untraced wall {wall_plain:.3f} s, "
          f"traced wall {wall_traced:.3f} s, {count} spans in {spans_path.relative_to(ROOT)}")
    for name in tracer.groups:
        print(f"  {name}: calls {tracer.metric(name + '.calls')}, "
              f"self {tracer.metric(name + '.self_s'):.4f} s")
    return plain, records, metrics, tracer


def print_scaling(records: list[Record], certify: list[float]) -> None:
    curve: dict[tuple[str, str], list[float]] = {}
    for r, t in zip(records, certify):
        curve.setdefault((r.command, r.bucket), []).append(t)
    print("scaling: certify_s_p50 per command and size bucket")
    for (command, bucket), xs in sorted(curve.items()):
        print(f"  {command:12s} {bucket:12s} {statistics.median(xs):.4f} s  ({len(xs)} instances)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "qborel" / "cli" / "main.py").is_file():
        print(f"perfbench: no qborel sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("qborel.cli")
    WORK.mkdir(exist_ok=True)
    runner = Runner(cli)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"round 0 sha256 {round_digest(args.workload, args.seed)}")
    try:
        runner.attempt(make_round(args.workload, args.seed, 0, 1)[0])  # warm-up, not counted
        if args.trace:
            counted, traced_records, metrics, tracer = traced(runner, args.workload, args.seed)
            checked = counted + traced_records
        else:
            counted, metrics = measured(runner, args.workload, args.seed, args.seconds)
            checked, tracer = counted, None
    finally:
        runner.close()
    for cause, n in sorted(Counter(r.failure for r in counted if r.failure).items()):
        print(f"failure x{n}: {cause}")
    values = {}
    for m in wanted:
        value = metrics[m["name"]] if m["name"] in metrics else tracer.metric(m["name"])
        values[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": all(r.failure in (None, KNOWN_FAILURE) for r in checked),
        "attempted": len(counted),
        "failed": sum(r.failure is not None for r in counted),
        "metrics": values,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
