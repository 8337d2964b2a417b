"""Benchmark of the ``gbs`` command line on four seeded workloads.

    python3 perfbench/run.py --workload wp_long --seed 1 --seconds 28 --trace 0

Builds the workload's query list from the seed, labels every query with an
oracle that shares no code with the package, then starts the workload's own
process (``worker.py``), which calls ``gbs.cli.main`` in-process as one
closed-loop client.  Every output is checked.  Timings are scaled to a
reference machine speed by the kernel in ``speed.py``, timed next to each
query.  The report lists each metric with its unit, and the last line of
stdout is one JSON object.  With
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Exits 1 when any output is wrong and 2
when the run cannot be made at all.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed
import workloads
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 7919  # kept back for confirming later claims
# fresh processes timed for setup_s besides the worker, half of them
# before it and half after, so that setup_s samples the machine twice
SETUP_PROBES = 10

SELF_METRICS = (
    "graphs.parse_graph", "graphs.parse_word", "graphs.to_factorization",
    "graphs.spanning_tree", "graphs.rebase", "graphs.tree_path",
    "britton.PrefixRatios", "britton.color", "britton.word_problem",
    "britton.britton_reduce_fast", "britton.cyclically_reduce_with_conjugator",
    "freegroup.embed_f2", "freegroup.is_trivial", "freegroup.free_reduce_stack",
    "freegroup.reduction_classes",
    "arith.crt_solve", "arith.crt_solvable", "arith.factor_over",
    "conjugacy.conjugate", "conjugacy.hyperbolic_system", "conjugacy.verify_conjugator",
    "conjugacy.conj_elliptic",
    "monoid.congruent", "monoid.gbs_to_monoid",
    "cli.main",
)
COUNT_METRICS = (
    "graphs.rebase.letters_out", "britton.color.positions", "britton.word_problem.calls",
    "freegroup.embed_f2.letters_out", "arith.crt_solve.calls",
    "conjugacy.hyperbolic_system.calls", "conjugacy.verify_conjugator.calls",
    "monoid.congruent.calls", "monoid.congruent.unknown", "monoid.congruent.path_steps",
)
TARGET_LAYERS = {
    "wp_long": ("britton", "freegroup"),
    "conj_hyperbolic": ("arith",),
    "elliptic_monoid": ("monoid",),
    "pi1_large_graph": ("graphs",),
}


class SetupError(RuntimeError):
    """The run cannot be made (no package, a worker that died, ...)."""


def _percentile(values: list, q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scaled(samples: list) -> list:
    """Each sample's latency at the reference speed: times REF_S over the
    median kernel time of the kernels timed just before and after it (two on
    each side).  The machine's speed drifts within seconds, so a query is
    compared only with the kernels that ran next to it."""
    kernels = [s[4] for s in samples]
    out = []
    for j, s in enumerate(samples):
        local = statistics.median(kernels[max(0, j - 2):j + 2])
        out.append(s[1] * speed.REF_S / local)
    return out


def _typical(samples: list, n: int) -> list:
    """Each query's median scaled latency over the passes of ``samples``."""
    per_query = [[] for _ in range(n)]
    for s, latency in zip(samples, _scaled(samples)):
        per_query[s[0]].append(latency)
    return [statistics.median(v) for v in per_query]


def _spawn(cmd: list):
    """Start a process, return (seconds until it printed ``ready``, process)."""
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise SetupError(f"worker did not start: {err.strip()[-500:]}")
    return ready, proc


def _wait(proc, timeout: float):
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SetupError("worker timed out") from None
    if proc.returncode:
        raise SetupError(f"worker failed: {err.strip()[-500:]}")


def _digest(queries: list, workdir: Path) -> str:
    h = hashlib.sha256()
    prefix = str(workdir) + "/"
    for q in queries:
        h.update(json.dumps([q.qid] + [a.replace(prefix, "") for a in q.argv]).encode())
    for path in sorted(workdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _measure(args, queries, top: Path) -> tuple:
    qfile, rfile = top / "queries.json", top / "results.json"
    qfile.write_text(json.dumps([{"id": q.qid, "argv": q.argv} for q in queries]), encoding="utf-8")
    base = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT)]
    setups = []

    def kernels() -> list:
        return [speed.kernel() for _ in range(5)]

    def probe(count: int):
        for _ in range(count):
            before = kernels()
            ready, proc = _spawn(base + ["--probe"])
            _wait(proc, 120)
            # at the reference speed, like the query timings
            setups.append(ready * speed.REF_S / statistics.median(before + kernels()))

    probe(SETUP_PROBES // 2)
    cmd = base + ["--queries", str(qfile), "--results", str(rfile),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        (HERE / "out").mkdir(exist_ok=True)
        cmd += ["--spans", str(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    before = kernels()
    ready, proc = _spawn(cmd)
    setups.append(ready * speed.REF_S / statistics.median(before))
    _wait(proc, 3 * args.seconds + 120)
    probe(SETUP_PROBES - SETUP_PROBES // 2)
    res = json.loads(rfile.read_text(encoding="utf-8"))
    with open(str(rfile) + ".first", encoding="utf-8") as fh:
        verdicts = _check(queries, (json.loads(line) for line in fh))
    return setups, res, verdicts


def _check(queries, firsts) -> dict:
    """Per query index: None when the first-pass answer is right, else the
    reason; samples that differ from the first pass fail on their own."""
    verdicts = {}
    for first in firsts:
        i = first["i"]
        if first["code"] is None:
            verdicts[i] = f"raised {first['err']}"
            continue
        try:
            verdicts[i] = queries[i].check(first["code"], first["out"])
        except Exception as exc:  # an unreadable output is a wrong output
            verdicts[i] = f"output check raised {type(exc).__name__}: {exc}"
    return verdicts


def _layer_metrics(res, untraced_qps: float, traced_qps: float) -> tuple:
    passes = len(res["passes"])
    self_s, counts, maxima = res["self_s"], res["counts"], res["maxima"]
    m, notes = {}, {}
    for name in SELF_METRICS:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s")
    for name in COUNT_METRICS:
        m[name] = (counts.get(name, 0) / passes, "count")
    m["britton.max_exp_bits"] = (maxima.get("britton.max_exp_bits", 0), "bits")
    m["arith.crt_solve.max_modulus_bits"] = (maxima.get("arith.crt_solve.max_modulus_bits", 0), "bits")
    edges_in = counts.get("britton.reduce.edges_in", 0)
    m["britton.reduce.keep_ratio"] = (counts.get("britton.reduce.edges_out", 0) / edges_in if edges_in else 0.0, "ratio")
    notes["britton.reduce.keep_ratio"] = f"edges out / {edges_in} edges in"
    systems = counts.get("conjugacy.hyperbolic_system.calls", 0)
    hits = counts.get("conjugacy.aligned_hits", 0)
    m["conjugacy.aligned_hit_ratio"] = (hits / systems if systems else 0.0, "ratio")
    notes["conjugacy.aligned_hit_ratio"] = f"{hits} conjugate verdicts / {systems} hyperbolic systems"
    total = sum(self_s.values())
    for layer in LAYERS:
        share = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_share"] = (share / total if total else 0.0, "ratio")
        notes[f"{layer}.self_share"] = f"of {total / passes:.4f} s traced self time per pass"
    m["trace.overhead_frac"] = (traced_qps / untraced_qps, "ratio")
    notes["trace.overhead_frac"] = f"traced {traced_qps:.3f} qps / untraced {untraced_qps:.3f} qps"
    return m, notes


def run(args) -> int:
    if not (ROOT / "src" / "gbs" / "__init__.py").is_file():
        print(f"error: no gbs package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (HERE / ".work").mkdir(exist_ok=True)
    top = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        workdir = top / "files"
        workdir.mkdir()
        queries = workloads.WORKLOADS[args.workload](random.Random(args.seed), workdir)
        digest = _digest(queries, workdir)
        print(f"workload {args.workload}  seed {args.seed}  queries/pass {len(queries)}  digest {digest}")
        print(f"held-out seed for confirming later claims: {HELD_OUT_SEED}")
        setups, res, verdicts = _measure(args, queries, top)
    finally:
        shutil.rmtree(top, ignore_errors=True)

    samples = res["samples"]
    failed, undecided, failures = 0, 0, []
    for i, _, code, same, _ in samples:
        reason = verdicts[i] if same else "answer differs from the first pass"
        if reason is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(f"seed {args.seed} query {queries[i].qid}: {reason}")
        elif code == 2:
            undecided += 1
    wrapped = res["wrapped_before"] + res["wrapped_after"]
    if wrapped:
        failures.append(f"gbs attributes left wrapped: {', '.join(wrapped)}")
    if not res["gbs_file"].startswith(str(ROOT / "src")):
        failures.append(f"gbs imported from {res['gbs_file']}, not from this checkout")

    n_untraced = res.get("untraced_samples", len(samples))
    untraced_passes = res.get("untraced_passes", res["passes"])
    # Timings are scaled to the reference speed, then each query's median
    # over the passes is taken: on a shared machine a query's fastest or
    # slowest pass says more about the other tenants than about the code
    # (see README, Noise)
    typical = _typical(samples[:n_untraced], len(queries))
    slowdown = statistics.median(s[4] for s in samples[:n_untraced]) / speed.REF_S
    p95 = _percentile(typical, 95)
    beyond = sum(x > p95 for x in typical)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_qps": (len(queries) / sum(typical), "1/ref_s"),
        "latency_p50_ms": (1e3 * statistics.median(typical), "ref_ms"),
        "latency_p95_ms": (1e3 * p95, "ref_ms"),
        "peak_rss_mb": (res["ru_maxrss_kb"] / 1024, "MB"),
    }
    rates = {"error_rate": failed / len(samples), "undecided_rate": undecided / len(samples)}
    print(f"untraced: {n_untraced} samples in {sum(untraced_passes):.2f} s over "
          f"{len(untraced_passes)} passes ({n_untraced / sum(untraced_passes):.3f} queries/s as run); "
          f"timings from the median of {len(untraced_passes)} per query; "
          f"{beyond} of {len(typical)} queries beyond p95; setup from {len(setups)} fresh processes")
    print(f"machine speed: the kernel took {slowdown:.3f} x its reference time (median); "
          f"ref_ms and 1/ref_s are scaled by the kernel times around each query")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {value:12.4f} {unit}")
    for name, value in rates.items():
        print(f"  {name:<16} {value:12.4f} ratio  ({round(value * len(samples))} of {len(samples)} samples)")

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    if args.trace:
        traced_qps = len(queries) / sum(_typical(samples[n_untraced:], len(queries)))
        layer, notes = _layer_metrics(res, e2e["throughput_qps"][0], traced_qps)
        print(f"traced: {len(samples) - n_untraced} samples in {sum(res['passes']):.2f} s over "
              f"{len(res['passes'])} passes, {res['span_count']} spans; values are per pass")
        for name, (value, unit) in layer.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<44} {value:14.6g} {unit}{note}")
        shares = {layer_: layer[f"{layer_}.self_share"][0] for layer_ in LAYERS}
        top_layer = max(shares, key=shares.get)
        target = TARGET_LAYERS[args.workload]
        held = sum(shares[t] for t in target) >= max(v for k, v in shares.items() if k not in target)
        print(f"largest self share: {top_layer}; target {'+'.join(target)} "
              f"{'holds' if held else 'does not hold'} the largest share")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    for line in failures:
        print(f"FAIL {line}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
