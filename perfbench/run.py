"""The gbeq benchmark: four closed-loop workloads over the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  One caller starts each item only
after the previous one has finished, in a single process with no
threads (cli-cold starts one child interpreter per item), pinned to
one CPU.  A run goes through every item once, then repeats items that
have used less than their share of --seconds until --seconds have
passed.  Item times are reported in seconds at a fixed reference
speed, measured by a reference loop timed between runs (see
at_reference_speed).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced
pass, then one pass with the tracer installed, and prints the
per-layer metrics: calls and self time of each layer's entry points,
counters, and the tracing overhead.  Metric names and units come from
BENCHMARK.json.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit status is
nonzero when an item failed that is not a known failure below.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("sweep-heavy", "sweep-light", "verify-mix", "cli-cold")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
# The reference loop (reference_loop_s) and its median time on the host
# the benchmark was written on: 2 vCPUs of an Intel Xeon at 2.1 GHz,
# Python 3.11.7.  Item times are reported in seconds at that speed.
REF_ITERATIONS = 20_000
REF_LOOP_S = 0.0018
REF_SHARE = 0.1
REF_WINDOW_S = 0.5
# Items that fail at the recorded baseline.  `verify-solution --solution
# 1/0` should exit 2 (unusable input) but exits 1 with a traceback.
KNOWN_FAILURES = {"cli-cold": {"verify-div-zero"}}

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from outcome import Item, Outcome  # noqa: E402

Record = Tuple[int, float, Outcome]
Block = Tuple[float, float, int]


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_to_one_cpu() -> None:
    """Keep this process and the ones it starts on one CPU.

    The CPUs of a shared host change speed independently; on one CPU the
    reference loop always runs where the work it scales runs.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _check_checkout() -> dict:
    """The metric spec, after checking the program's source is here."""
    if not (ROOT / "src" / "gbeq" / "__init__.py").is_file():
        _fail(f"no gbeq source under {ROOT / 'src'}; run from a checkout of the repository")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(ROOT / "src"))
    return spec


# ---------------------------------------------------------------------------
# set-up and the closed loop


class Bench:
    """A workload's items, built in this process, and what holds them."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.runner = None
        self.tracer = None
        self.work: Optional[Path] = None
        start = time.perf_counter()
        if workload == "cli-cold":
            import cli_cold

            self.work = Path(tempfile.mkdtemp(prefix="cli-cold-", dir=OUT))
            self.runner = cli_cold.CliRunner(ROOT, self.work)
            self.items, warmup = cli_cold.build(seed, self.runner)
        else:
            import inproc

            self.items, warmup = inproc.WORKLOAD_ITEMS[workload](seed)
        self.warmup = (warmup.id, _run_item(warmup))
        self.setup_s = time.perf_counter() - start

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)


def _run_item(item: Item) -> Outcome:
    try:
        return item.run()
    except Exception as exc:  # an item that raises is a failed item
        return Outcome(False, (), f"{type(exc).__name__}: {exc}")


def reference_loop_s() -> float:
    """Time of a fixed integer loop that never touches gbeq.

    It allocates no container, so the garbage collector never runs in
    it, and its time follows only the speed the host gives this process.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def reference_block(seconds: float) -> Block:
    """The reference loop, repeated until seconds have passed (at least once).

    Returns the time the block ended, the mean time of one loop and the
    number of loops.
    """
    total, loops = 0.0, 0
    while True:
        total += reference_loop_s()
        loops += 1
        if total >= seconds:
            return time.perf_counter(), total / loops, loops


def closed_loop(items: List[Item], seconds: float, tracer=None) -> Tuple[List[Record], List[Block]]:
    """Every item once, then repeats until seconds pass.

    A repeat goes to each item in turn that has used less than its
    share, seconds / items, so cheap items gather many timings and
    costly ones are not run again.  A block of reference loops comes
    first and after every run, REF_SHARE of the run's time long, so run
    j starts when block j ends and block j + 1 follows it.
    """
    records: List[Record] = []
    blocks = [reference_block(0.0)]
    n = len(items)
    share = seconds / n
    spent = [0.0] * n
    start = time.perf_counter()
    for rnd in itertools.count():
        for idx, item in enumerate(items):
            if rnd > 0 and (spent[idx] >= share or time.perf_counter() - start >= seconds):
                continue
            if tracer is not None:
                tracer.item = item.id
            t0 = time.perf_counter()
            outcome = _run_item(item)
            dt = time.perf_counter() - t0
            blocks.append(reference_block(REF_SHARE * dt))
            spent[idx] += dt
            records.append((idx, dt, outcome))
        if time.perf_counter() - start >= seconds:
            return records, blocks


def at_reference_speed(records: List[Record], blocks: List[Block]) -> List[float]:
    """Each run's time in seconds at the speed where the reference loop takes REF_LOOP_S.

    A shared host gives this process fast and slow stretches, up to 2x
    apart, that alternate within a second and drift over tens of
    seconds.  A run is scaled by the mean time of the reference loops
    in the blocks that reach within REF_WINDOW_S of it.  The blocks
    after a long run are long, so the mean follows the stretches the
    run went through.
    """
    ends = [end for end, _, _ in blocks]
    scaled = []
    for j, (_, dt, _) in enumerate(records):
        lo, hi = ends[j] - REF_WINDOW_S, ends[j] + dt + REF_WINDOW_S
        total = loops = 0
        for end, mean, k in blocks[bisect.bisect_left(ends, lo):]:
            if end - mean * k > hi:
                break
            total += mean * k
            loops += k
        scaled.append(dt * REF_LOOP_S * loops / total)
    return scaled


def setup_probes(workload: str, seed: int, count: int) -> List[float]:
    """Set-up times of fresh interpreters doing this run's set-up."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ---------------------------------------------------------------------------
# metrics


def item_stats(items: List[Item], records: List[Record], blocks: List[Block]) -> Dict:
    """Throughput, median and tail over each item's median time.

    Times are at the reference speed (at_reference_speed).  Taking one
    time per item first keeps every item at the same weight however
    many runs it got, so items_per_s is the throughput of one pass.
    The tail is the highest percentile with TAIL_BEYOND items above it.
    """
    times: Dict[int, List[float]] = {}
    for (idx, _, _), dt in zip(records, at_reference_speed(records, blocks)):
        times.setdefault(idx, []).append(dt)
    per_item = sorted(statistics.median(v) for v in times.values())
    n = len(per_item)
    tail_rank = max(0, n - TAIL_BEYOND - 1)
    return {
        "items_per_s": n / sum(per_item),
        "item_p50_s": statistics.median(per_item),
        "item_tail_s": per_item[tail_rank],
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "distinct_items": n,
        "runs_per_item": len(records) / n,
        "reference_loop_s": sum(m * k for _, m, k in blocks) / sum(k for _, _, k in blocks),
        "item_times_s": {items[i].id: sorted(v) for i, v in sorted(times.items())},
    }


def outcome_counts(records: List[Record], warmup: Tuple[str, Outcome], items: List[Item]) -> Dict:
    """Failed runs and attempts over every run; the rest per item.

    fail_ratio is the share of items with a failed run, and the verdict
    histogram counts each item's first run, so both stay the same
    however many passes a run made.
    """
    first: Dict[int, Outcome] = {}
    failed_items = set()
    for idx, _, o in records:
        first.setdefault(idx, o)
        if not o.ok:
            failed_items.add(idx)
    failed_ids = sorted({items[idx].id for idx, _, o in records if not o.ok})
    details = sorted({f"{items[idx].id}: {o.detail}" for idx, _, o in records if not o.ok})
    if not warmup[1].ok:
        failed_ids.append(f"warmup {warmup[0]}")
        details.append(f"warmup {warmup[0]}: {warmup[1].detail}")
    hist = Counter(v for o in first.values() for v in o.verdicts)
    return {
        "attempted": len(records),
        "failed": sum(not o.ok for _, _, o in records),
        "fail_ratio": len(failed_items) / len(first),
        "failed_ids": failed_ids,
        "failure_details": details,
        "verdicts": {v: hist.get(v, 0) for v in ("SYMBOLIC_ZERO", "NUMERIC_ZERO", "NONZERO")},
    }


def end_to_end(bench: Bench, records: List[Record], blocks: List[Block], setups: List[float]) -> Tuple[Dict, Dict]:
    stats = item_stats(bench.items, records, blocks)
    counts = outcome_counts(records, bench.warmup, bench.items)
    zeros = counts["verdicts"]["SYMBOLIC_ZERO"] + counts["verdicts"]["NUMERIC_ZERO"]
    who = resource.RUSAGE_CHILDREN if bench.runner is not None else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": stats["items_per_s"],
        "item_p50_s": stats["item_p50_s"],
        "item_tail_s": stats["item_tail_s"],
        "correct_ratio": 1.0 - counts["fail_ratio"],
        "symbolic_ratio": counts["verdicts"]["SYMBOLIC_ZERO"] / zeros if zeros else 0.0,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return metrics, dict(stats, **counts, setups_s=setups, blocks=blocks,
                         order=[bench.items[idx].id for idx, _, _ in records],
                         runs_s=[dt for _, dt, _ in records])


def outermost_import_s(importtime: str, package: str) -> float:
    """Cumulative import time of package's outermost modules, in seconds.

    `python -X importtime` prints each module after the modules it
    imported, indented by depth; a module counts unless an enclosing
    module also belongs to package.
    """
    entries = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue
        raw = parts[2][1:]
        entries.append((len(raw) - len(raw.lstrip(" ")), raw.strip(), cumulative))
    total = 0
    enclosing: List[Tuple[int, bool]] = []
    for indent, name, cumulative in reversed(entries):
        while enclosing and enclosing[-1][0] >= indent:
            enclosing.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(m for _, m in enclosing):
            total += cumulative
        enclosing.append((indent, mine))
    return total / 1e6


def import_times() -> Tuple[float, float]:
    """Median import time of gbeq.cli and of scipy inside it, fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gbeq.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"importing gbeq.cli failed:\n{proc.stderr}")
        runs.append((outermost_import_s(proc.stderr, "gbeq"), outermost_import_s(proc.stderr, "scipy")))
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


Pass = Tuple[List[Record], List[Block]]


def per_layer(bench: Bench, seed: int, untraced_pass: Pass, traced_pass: Pass) -> Tuple[Dict, Dict]:
    untraced, traced = untraced_pass[0], traced_pass[0]
    tag = f"{bench.workload}-seed{seed}"
    if bench.runner is None:
        tr = bench.tracer
        times = tr.self_times()
        counters = Counter(tr.counters())
        spans_at = OUT / f"spans-{tag}.tsv"
        tr.write(spans_at)
    else:
        times, counters = {}, Counter()
        spans_at = bench.runner.trace_dir
        for path in sorted(spans_at.glob("*.tsv")):
            spans, excluded = tracing.read_spans(path)
            for name, (calls, self_s) in tracing.aggregate(spans, excluded).items():
                c, s = times.get(name, (0, 0.0))
                times[name] = (c + calls, s + self_s)
            counters.update(json.loads(Path(str(path) + ".counters.json").read_text()))
    metrics: Dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    nz = tracing.IS_ZERO
    metrics[f"{tracing.NORMAL_FORM}.nodes_in"] = counters["nodes_in"]
    metrics[f"{tracing.NORMAL_FORM}.terms_out"] = counters["terms_out"]
    metrics[f"{nz}.symbolic_share"] = (
        counters["zero_symbolic"] / metrics[f"{nz}.calls"] if metrics[f"{nz}.calls"] else 0.0
    )
    metrics[f"{nz}.samples"] = counters["zero_samples"]
    metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_times()
    # each pass in seconds at the reference speed, so host drift between
    # the two passes does not read as overhead
    untraced_s = sum(at_reference_speed(*untraced_pass))
    traced_s = sum(at_reference_speed(*traced_pass))
    metrics["trace_overhead"] = traced_s / untraced_s - 1.0
    counts = outcome_counts(untraced + traced, bench.warmup, bench.items)
    metrics["items.attempted"] = counts["attempted"]
    metrics["items.failed"] = counts["failed"]
    for verdict, count in counts["verdicts"].items():
        metrics[f"verdicts.{verdict}"] = count
    detail = dict(counts, spans=str(spans_at.relative_to(ROOT)), untraced_s=untraced_s, traced_s=traced_s)
    return metrics, detail


# ---------------------------------------------------------------------------
# one workload


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> int:
    bench = Bench(workload, seed)
    try:
        if not trace:
            setups = [bench.setup_s] + setup_probes(workload, seed, SETUP_REPEATS - 1)
            records, blocks = closed_loop(bench.items, seconds)
            metrics, detail = end_to_end(bench, records, blocks, setups)
            wanted = spec["end_to_end"]
        else:
            untraced = closed_loop(bench.items, 0)
            if bench.runner is None:
                bench.tracer = tracing.Tracer()
                bench.tracer.install()
                traced = closed_loop(bench.items, 0, bench.tracer)
            else:
                bench.runner.trace_dir = OUT / f"trace-{workload}-seed{seed}"
                shutil.rmtree(bench.runner.trace_dir, ignore_errors=True)
                bench.runner.trace_dir.mkdir()
                traced = closed_loop(bench.items, 0)
            metrics, detail = per_layer(bench, seed, untraced, traced)
            wanted = spec["per_layer"]
    finally:
        bench.close()

    known = KNOWN_FAILURES.get(workload, set())
    correct = set(detail["failed_ids"]) <= known
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "known_failures": sorted(known), "metrics": out, "detail": detail}
    (OUT / f"report-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2, default=str), encoding="utf-8"
    )

    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for name, m in out.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        print(
            f"  tail is p{detail['tail_percentile']:.1f} of {detail['distinct_items']} items; "
            f"{detail['runs_per_item']:.1f} runs per item; reference loop {1e3 * detail['reference_loop_s']:.3f} ms; "
            f"setups {', '.join(f'{s:.3f}' for s in detail['setups_s'])} s"
        )
    print(
        f"  attempted {detail['attempted']}, failed {detail['failed']} "
        f"(fail_ratio {detail['fail_ratio']:.4f} of items); verdicts "
        + ", ".join(f"{k} {v}" for k, v in detail["verdicts"].items())
    )
    for line in detail["failure_details"]:
        print(f"  {'known failure' if line.split(':')[0] in known else 'FAILED'}: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": out,
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = _check_checkout()
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.setup_probe:
        bench = Bench(args.workload, args.seed)
        bench.close()
        print(json.dumps({"setup_s": bench.setup_s}))
        return 0
    return run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
