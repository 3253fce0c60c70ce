"""wxhier benchmark: one workload per run, or every workload with ``--all``.

One run (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, measures for S seconds,
checks the outputs and prints one JSON object as the last stdout line.
With ``--trace 0`` it holds the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics.  Every run also writes a result file
(machine record, the metrics under per-workload names such as
``train_img_per_s``, checks, and for traced runs every span) under
``.bench_out/results/``.

Every workload, each in its own process, with the output checks::

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--repeats R] [--tiny] [--out DIR]

prints each end-to-end metric with its unit, median, quartiles and sample
count, the tracing overhead and the per-layer table, and exits non-zero
if any check failed.  ``--compare A.json B.json`` compares two result or
summary files and flags differing machine records.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# An untraced run measures in this many child processes, one after another,
# each for an equal share of --seconds, and pools their samples: the same
# code ran up to 15 % faster in one process than in the next on a shared VM.
PROCESSES = 3
SETUP_REPEATS = 2  # set-ups per process; setup_s is the median over all of them
SPAN_CAP = 50_000  # spans written to a traced run's result file

# Per-workload metric names: name -> (unit, source).  The
# source is a key of the run's generic end-to-end metrics or one of the
# extra values the run computes.
NAMED = {
    "train_micro32": {
        "train_img_per_s": ("img/s", "img_per_s"),
        "heldout_leaf_acc": ("fraction", "heldout_leaf_acc"),
    },
    "serve_mixed_paper100": {
        "predict_p50_ms": ("ms", "p50_ms"),
        "predict_p95_ms": ("ms", "p95_ms"),
    },
    "evaluate_batch_paper100": {
        "eval_img_per_s": ("img/s", "img_per_s"),
    },
}
COMMON_NAMED = {
    "setup_s": ("s", "setup_s"),
    "peak_rss_mb": ("MB", "peak_rss_mb"),
    "error_rate": ("fraction", "error_rate"),
}
# machine-record fields that make two measurements incomparable when they differ
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "openblas", "blas_threads", "blas_env")


# ---------------------------------------------------------------- machine

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> tuple[str, int | None]:
    """OpenBLAS version and the thread count in effect, or ('unknown', None)."""
    import numpy as np

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        version = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return version, int(fn())
    return version, None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown (not a git checkout)"


def machine_record(seed: int) -> dict:
    import numpy as np

    version, threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": version,
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def machine_differences(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a.get(k)!r} vs {b.get(k)!r}" for k in MACHINE_KEYS if a.get(k) != b.get(k)]


# ---------------------------------------------------------------- one run

def _run_phase(wl, ctx, rec, seconds: float) -> int:
    """Whole passes, at least one, until ``seconds`` have elapsed; returns passes run."""
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < 1 or time.perf_counter() < deadline:
        wl.run_pass(ctx, rec)
        rec.passes += 1
        passes += 1
    return passes


def _end_to_end(op_s: list, rates: list) -> dict:
    """Throughput and latency of operations taking ``op_s`` seconds each.

    ``rates`` (images per second per operation) is empty for workloads
    whose throughput is operations over their total time.
    """
    import numpy as np

    if not op_s:
        return {}
    p50, p95 = np.percentile(np.array(op_s) * 1000.0, [50, 95])
    img_per_s = statistics.median(rates) if rates else len(op_s) / sum(op_s)
    return {"img_per_s": float(img_per_s), "p50_ms": float(p50), "p95_ms": float(p95)}


def _per_layer(tracer, setup, final, passes: int, routed: dict, overhead_pct: float) -> dict:
    """Per-layer metrics: one traced set-up plus the mean traced pass."""
    from tracer import HOOKS, TARGET_NAMES, Totals
    from workloads import COARSE_GROUPS, hierarchy

    def per(a: float, b: float) -> float:
        return a + (b - a) / passes

    out = {}
    for name in TARGET_NAMES:
        s, f = setup.get(name, Totals()), final.get(name, Totals())
        out[f"{name}.calls"] = (per(s.calls, f.calls), "count")
        out[f"{name}.ms"] = (per(s.busy_ns, f.busy_ns) / 1e6, "ms")
        out[f"{name}.self_ms"] = (per(s.self_ns, f.self_ns) / 1e6, "ms")
        out[f"{name}.failed"] = (per(s.failed, f.failed), "count")
        for key, unit in HOOKS.get(name, (None, {}))[1].items():
            if key == "rows":  # mean batch rows per call
                out[f"{name}.rows"] = (f.extra[key] / f.calls if f.calls else 0.0, unit)
            else:
                out[f"{name}.{key}"] = (per(s.extra[key], f.extra[key]), unit)
    for role in hierarchy.MODEL_ROLES:
        t = tracer.roles.get(role, Totals())
        out[f"nn.train.train.{role}.ms"] = (t.busy_ns / 1e6 / passes, "ms")
        img_per_s = t.extra["img"] / (t.busy_ns / 1e9) if t.busy_ns else 0.0
        out[f"nn.train.train.{role}.img_per_s"] = (img_per_s, "img/s")
    for group in COARSE_GROUPS:
        out[f"hierarchy.routed.{group}"] = (routed.get(group, 0), "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def _trace_completeness(wl, ctx, routed: dict, setup, final, passes: int) -> tuple[bool, str]:
    from tracer import TARGET_NAMES, Totals

    want_setup, want_pass = wl.expected_calls(ctx, routed)
    wrong = []
    for name in TARGET_NAMES:
        got_setup = setup.get(name, Totals()).calls
        got_loop = final.get(name, Totals()).calls - got_setup
        want_loop = passes * want_pass.get(name, 0)
        if got_setup != want_setup.get(name, 0) or got_loop != want_loop:
            wrong.append(f"{name}: set-up {got_setup} (want {want_setup.get(name, 0)}), "
                         f"{passes} passes {got_loop} (want {want_loop})")
    return not wrong, "; ".join(wrong) or f"{len(TARGET_NAMES)} functions match"


def _traced_phases(wl, ctx, rec, tracer, seconds: float, checks: list, result: dict) -> dict:
    """Untraced and traced passes in turn, so machine drift hits both alike.

    Returns the per-layer metrics; the traced-minus-untraced difference of
    the end-to-end metrics is the tracing overhead.
    """
    setup = tracer.snapshot()
    ops = {False: [], True: []}  # indices into rec.op_s, by traced
    routed = None
    deadline = time.perf_counter() + seconds
    turn = 0
    while turn < 2 or time.perf_counter() < deadline:
        traced = turn % 2 == 1
        first = len(rec.op_s)
        if traced:
            rec.span = tracer.span
            tracer.install()
        try:
            wl.run_pass(ctx, rec)
        finally:
            tracer.uninstall()
            rec.span = contextlib.nullcontext
        rec.passes += 1
        ops[traced].extend(range(first, len(rec.op_s)))
        if traced and routed is None and rec.routed:
            routed = rec.routed[-1]
        turn += 1
    passes = turn // 2
    final = tracer.snapshot()

    def e2e(idx: list) -> dict:
        return _end_to_end([rec.op_s[i] for i in idx], [rec.rates[i] for i in idx if rec.rates])

    untraced, traced = e2e(ops[False]), e2e(ops[True])
    overhead = {k: traced[k] - untraced[k] for k in traced if k in untraced}
    overhead_pct = 100.0 * overhead["p50_ms"] / untraced["p50_ms"] if "p50_ms" in overhead else 0.0
    if routed is None:
        checks.append(("trace_complete", False, "no traced pass completed"))
        routed = {}
    else:
        checks.append(("trace_complete", *_trace_completeness(wl, ctx, routed, setup, final, passes)))
    result["untraced"] = untraced
    result["traced"] = traced
    result["tracing_overhead"] = overhead
    result["spans"] = tracer.span_records(0, SPAN_CAP)
    result["spans_total"] = len(tracer.spans)
    return _per_layer(tracer, setup, final, passes, routed, overhead_pct)


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from tracer import Tracer
    from workloads import WORKLOADS, Record

    wl = WORKLOADS[name](tiny)
    work = OUT / "work" / f"{name}-{os.getpid()}"
    rec = Record()
    checks = []
    result: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "tiny": tiny}
    try:
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.span("bench.setup"):
                    ctx = wl.setup(work, seed)
            finally:
                tracer.uninstall()
            tracer.role_of_train = wl.train_role(ctx)
        else:
            setup_s, ctx = [], None
            for _ in range(1 if tiny else SETUP_REPEATS):
                ctx = None  # free the previous set-up's inputs before the next
                t0 = time.perf_counter()
                ctx = wl.setup(work, seed)
                setup_s.append(time.perf_counter() - t0)
            result["setup_s_samples"] = setup_s
        _run_phase(wl, ctx, rec, 0)  # warm-up pass: checked, not timed
        timed_from = len(rec.op_s)
        if trace:
            result["metrics"] = _traced_phases(wl, ctx, rec, tracer, seconds, checks, result)
        else:
            _run_phase(wl, ctx, rec, seconds)
        checks.extend(wl.checks(ctx, rec))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.append(("no_unexpected_failures", rec.failed == 0, "; ".join(rec.failures)[:2000]))
    checks.append(("routed_counts_repeat", len({json.dumps(r, sort_keys=True) for r in rec.routed}) <= 1,
                   f"routed per pass {rec.routed[:3]}"))
    result.update(
        warmup_op_ms=[t * 1000.0 for t in rec.op_s[:timed_from]],
        op_ms=[t * 1000.0 for t in rec.op_s[timed_from:]],
        rates=rec.rates[timed_from:],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        heldout_leaf_acc=wl.heldout_acc(rec),
        fingerprint=wl.fingerprint(rec),
        routed=rec.routed[0] if rec.routed else None,
        passes=rec.passes,
        checks=[{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        attempted=rec.attempted,
        failed=rec.failed,
    )
    result["correct"] = all(c["ok"] for c in result["checks"])
    return result


def run_processes(args) -> dict:
    """An untraced run: PROCESSES child runs, merged into one result."""
    start = time.perf_counter()
    parts = []
    for i in range(PROCESSES):
        out = OUT / "work" / f"{args.workload}-{os.getpid()}-process{i}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / PROCESSES),
               "--trace", "0", "--process", "--out", str(out)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, 170.0 - (time.perf_counter() - start)))
        if proc.returncode != 0 or not out.is_file():
            raise SystemExit(f"measuring process {i} exited {proc.returncode}: {proc.stderr[-3000:]}")
        parts.append(json.loads(out.read_text()))
        out.unlink()
    return _merge(args, parts)


def _merge(args, parts: list[dict]) -> dict:
    """Pool the samples of the measuring processes and check they agree."""
    op_ms = [t for p in parts for t in p["op_ms"]]
    metrics = _end_to_end([t / 1000.0 for t in op_ms], [r for p in parts for r in p["rates"]])
    metrics["setup_s"] = statistics.median(t for p in parts for t in p["setup_s_samples"])
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in parts)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    checks = [dict(c, name=f"process {i}: {c['name']}") for i, p in enumerate(parts)
              for c in p["checks"]]
    fingerprints = {p["fingerprint"] for p in parts}
    checks.append({"name": "outputs_repeat_across_processes", "ok": len(fingerprints) == 1,
                   "detail": f"{len(fingerprints)} distinct output fingerprints"})
    extra = dict(metrics, error_rate=failed / attempted if attempted else 1.0,
                 heldout_leaf_acc=parts[0]["heldout_leaf_acc"])
    named = {**NAMED[args.workload], **COMMON_NAMED}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": 0,
        "tiny": args.tiny, "metrics": metrics,
        "named": {k: {"value": extra[src], "unit": unit} for k, (unit, src) in named.items()
                  if extra.get(src) is not None},
        "op_ms": op_ms, "setup_s_samples": [t for p in parts for t in p["setup_s_samples"]],
        "routed": parts[0]["routed"], "checks": checks,
        "correct": all(c["ok"] for c in checks), "attempted": attempted, "failed": failed,
        "processes": [{k: p[k] for k in ("op_ms", "warmup_op_ms", "setup_s_samples",
                                         "peak_rss_mb", "passes", "fingerprint")} for p in parts],
    }


def _emit(result: dict, spec: dict) -> dict:
    """The result line: exactly the metrics BENCHMARK.json lists, in its units."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    metrics, missing = {}, []
    for m in spec[kind]:
        raw = result["metrics"].get(m["name"])
        if raw is None or (isinstance(raw, tuple) and raw[1] != m["unit"]):
            missing.append(m["name"])
            continue
        value = raw[0] if isinstance(raw, tuple) else raw
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    if missing:
        raise SystemExit(f"benchmark bug: metrics missing or in another unit: {', '.join(missing)}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True, default=lambda v: v.item()) + "\n")
    tmp.replace(path)


def main_one(args, spec: dict) -> int:
    if args.process:  # one measuring process of an untraced run
        result = run_one(args.workload, args.seed, args.seconds, False, args.tiny)
        _write_json(args.out, result)
        return 0
    if args.trace:
        result = run_one(args.workload, args.seed, args.seconds, True, args.tiny)
    else:
        result = run_processes(args)
    result["machine"] = machine_record(args.seed)
    line = _emit(result, spec)
    out = args.out or OUT / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    )
    _write_json(out, result)
    for check in result["checks"]:
        if not check["ok"]:
            print(f"CHECK FAILED {check['name']}: {check['detail']}", file=sys.stderr)
    for name, m in sorted(result.get("named", {}).items()):
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"result file: {out}")
    print(json.dumps(line, sort_keys=True))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------- --all

def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main_all(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    runs_dir = args.out or OUT / f"all-{time.strftime('%Y%m%dT%H%M%S')}"
    problems: list[str] = []
    summary: dict = {"machine": machine_record(args.seed), "seed": args.seed,
                     "seconds": args.seconds, "repeats": args.repeats, "workloads": {}}
    for name in names:
        results = []
        for i, trace in enumerate([0] * args.repeats + [1]):
            out = runs_dir / f"{name}-{i}-trace{trace}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0 or not out.is_file():
                problems.append(f"{name} run {i} (trace {trace}) exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-1500:]}")
                if not out.is_file():
                    continue
            results.append(json.loads(out.read_text()))
        summary["workloads"][name] = _summarize(name, results, summary["machine"], problems)
    _print_summary(summary)
    summary["problems"] = problems
    _write_json(runs_dir / "summary.json", summary)
    print(f"\nsummary file: {runs_dir / 'summary.json'}")
    for p in problems:
        print(f"PROBLEM: {p}")
    print("ALL CHECKS PASSED" if not problems else f"{len(problems)} PROBLEM(S)")
    return 0 if not problems else 1


def _summarize(name: str, results: list[dict], machine: dict, problems: list[str]) -> dict:
    plain = [r for r in results if not r["trace"]]
    traced = [r for r in results if r["trace"]]
    named = {}
    for metric in plain[0]["named"] if plain else {}:
        values = [r["named"][metric]["value"] for r in plain]
        q1, med, q3 = _quartiles(values)
        named[metric] = {"unit": plain[0]["named"][metric]["unit"], "median": med,
                         "q1": q1, "q3": q3, "n": len(values)}
    for r in results:
        for c in r["checks"]:
            if not c["ok"]:
                problems.append(f"{name} (trace {r['trace']}) check {c['name']}: {c['detail']}")
        diff = machine_differences(machine, r["machine"])
        if diff:
            problems.append(f"{name}: machine record differs between runs: {diff}")
        error_rate = r.get("named", {}).get("error_rate", {}).get("value", 0.0)
        if error_rate:
            problems.append(f"{name}: error_rate {error_rate}")
    routed = {json.dumps(r["routed"], sort_keys=True) for r in results}
    if len(routed) > 1:
        problems.append(f"{name}: hierarchy.routed counts differ between runs: {sorted(routed)}")
    doc = {"named": named, "routed": results[0]["routed"] if results else None}
    if traced:
        doc["tracing_overhead"] = traced[0]["tracing_overhead"]
        doc["untraced_in_traced_run"] = traced[0]["untraced"]
        doc["per_layer"] = {k: v[0] for k, v in traced[0]["metrics"].items()}
    return doc


def _print_summary(summary: dict) -> None:
    m = summary["machine"]
    print(f"machine: nproc {m['nproc']}, {m['cpu_model']}, python {m['python']}, numpy "
          f"{m['numpy']}, OpenBLAS {m['openblas']} ({m['blas_threads']} threads), "
          f"commit {m['git_commit']}, seed {m['seed']}")
    for name, doc in summary["workloads"].items():
        print(f"\n== {name}")
        print(f"  {'metric':<20} {'unit':<9} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
        for metric, s in doc["named"].items():
            print(f"  {metric:<20} {s['unit']:<9} {s['median']:>12.6g} {s['q1']:>12.6g} "
                  f"{s['q3']:>12.6g} {s['n']:>3}")
        print(f"  hierarchy.routed: {doc['routed']}")
        if "tracing_overhead" in doc:
            over = ", ".join(f"{k} {v:+.4g}" for k, v in doc["tracing_overhead"].items())
            print(f"  tracing overhead (traced minus untraced, same run): {over}")
            layer = doc["per_layer"]
            rows = sorted({k.rsplit(".", 1)[0] for k in layer if k.endswith(".self_ms")},
                          key=lambda f: -layer[f + ".self_ms"])
            print(f"  {'function (per set-up + one pass)':<44} {'calls':>9} {'ms':>10} {'self_ms':>10}")
            for fn in rows:
                if layer[fn + ".calls"]:
                    print(f"  {fn:<44} {layer[fn + '.calls']:>9.6g} {layer[fn + '.ms']:>10.4g} "
                          f"{layer[fn + '.self_ms']:>10.4g}")


# ---------------------------------------------------------------- --compare

def _as_summary(doc: dict) -> dict:
    """A result file or a summary file, as {workload: {metric: (value, unit)}}."""
    if "workloads" in doc:
        return {w: {k: (v["median"], v["unit"]) for k, v in d["named"].items()}
                for w, d in doc["workloads"].items()}
    return {doc["workload"]: {k: (v["value"], v["unit"]) for k, v in doc.get("named", {}).items()}}


def main_compare(paths: list[Path]) -> int:
    a, b = (json.loads(p.read_text()) for p in paths)
    diff = machine_differences(a["machine"], b["machine"])
    if diff:
        print("WARNING: machine records differ, the comparison is not like for like:")
        for d in diff:
            print(f"  {d}")
    for key in ("git_commit", "seed"):
        print(f"{key}: {a['machine'].get(key)} -> {b['machine'].get(key)}")
    sa, sb = _as_summary(a), _as_summary(b)
    for w in sorted(set(sa) & set(sb)):
        for metric in sorted(set(sa[w]) & set(sb[w])):
            (va, unit), (vb, _) = sa[w][metric], sb[w][metric]
            change = f"{100.0 * (vb - va) / va:+.2f}%" if va else "n/a"
            print(f"{w} {metric}: {va:.6g} -> {vb:.6g} {unit} ({change})")
    return 2 if diff else 0


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--out", type=Path,
                        help="result file, or with --all the directory for all files "
                             "(default under .bench_out/)")
    parser.add_argument("--all", action="store_true", help="run every workload and summarize")
    parser.add_argument("--process", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=3, help="untraced runs per workload (--all)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="FILE")
    args = parser.parse_args(argv)

    if args.compare:
        return main_compare(args.compare)
    if not (ROOT / "src" / "wxhier" / "__init__.py").is_file():
        print(f"benchmark: no wxhier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.all:
        return main_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    return main_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
