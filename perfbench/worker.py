"""The workload's own process: one closed-loop client calling ``gbs.cli.main``
in-process, one query at a time.

Started by ``run.py``; it imports ``gbs`` from the checkout, runs one
untimed warm-up query, prints ``ready`` (the end of set-up), then reads the
query list and runs whole passes over it until the next pass would end past
``--seconds``.  After every query it times :func:`speed.kernel`, a fixed
piece of work that shares no code with the package, so that ``run.py`` can
scale each latency by the speed the machine ran at just then.  With
``--probe`` it exits after ``ready``.  With ``--trace 1`` the first half
of the time runs untraced and the second half under :class:`spans.Tracer`.
The first answer to each query is written out as it comes (only its hash
stays in memory, so the outputs do not count towards ``ru_maxrss``);
everything else goes to one JSON file at the end.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
# the same small query on every workload, so setup_s is about imports and
# start-up, not about one query of the workload
WARMUP = ["wp", "--literal", str(HERE / "warmup.graph"), "y a^2 Y a^-3"]


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed query, not a verdict
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        end = perf_counter()
    return end - start, code, out.getvalue(), err.getvalue()


def _passes(cli, queries, seconds, samples, first, sink, tracer=None):
    """Run whole passes; returns the duration of each.  A sample is
    ``[query index, latency, exit code, same answer as the first pass,
    kernel time just after the query]``."""
    begin = perf_counter()
    durations = []
    while True:
        t_pass = perf_counter()
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.qid = q["id"]
            latency, code, out, err = _call(cli.main, q["argv"])
            if i not in first:
                first[i] = (code, hash(out))
                sink.write(json.dumps({"i": i, "code": code, "out": out, "err": err[:300]}) + "\n")
            same = first[i] == (code, hash(out))
            samples.append([i, latency, code, same, speed.kernel()])
        now = perf_counter()
        durations.append(now - t_pass)
        if now - begin + durations[-1] > seconds:
            return durations


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--queries")
    ap.add_argument("--results", help="results JSON; first answers go to <results>.first")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    import gbs.cli as cli  # noqa: E402  (the checkout's copy)
    import spans  # noqa: E402

    _call(cli.main, WARMUP)
    print("ready", flush=True)
    if args.probe:
        return 0

    queries = json.loads(Path(args.queries).read_text(encoding="utf-8"))
    res = {"gbs_file": sys.modules["gbs"].__file__, "wrapped_before": spans.find_wrapped()}
    samples: list = []
    first: dict = {}
    sink = open(args.results + ".first", "w", encoding="utf-8")
    if not args.trace:
        res["passes"] = _passes(cli, queries, args.seconds, samples, first, sink)
    else:
        half = args.seconds / 2
        res["untraced_passes"] = _passes(cli, queries, half, samples, first, sink)
        n_untraced = len(samples)
        tracer = spans.Tracer()
        tracer.install()
        try:
            res["passes"] = _passes(cli, queries, half, samples, first, sink, tracer)
        finally:
            tracer.restore()
        res["untraced_samples"] = n_untraced
        res["self_s"] = tracer.self_times()
        res["counts"] = dict(tracer.counts)
        res["maxima"] = dict(tracer.maxima)
        res["span_count"] = len(tracer.spans)
        with open(args.spans, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    res["wrapped_after"] = spans.find_wrapped()
    sink.close()
    res["samples"] = samples
    res["ru_maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.results).write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
