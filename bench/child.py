"""The measured process: one fresh interpreter per input file.

    python3 bench/child.py check FILE [--trace SPANS]    one op per declaration
    python3 bench/child.py subst FILE [--trace SPANS]    one op per (pair, target)
    python3 bench/child.py corpus                        golden-corpus verdicts
    python3 bench/child.py sweep CAP_S                   face-lattice width sweep

It imports cubnf, reads and parses FILE (set-up ends there, stamped with
the system-wide monotonic clock so the parent can time it from spawn),
runs every op once, runs the calibration kernel (calib.py) before the
first op and after every CAL_EVERY_S of op time, and prints one JSON
object. Verdicts are judged by the
parent, which holds the references.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

FUEL = 1000
CAL_EVERY_S = 0.5   # op time between two runs of the calibration kernel


def _load(path: str, tracer):
    from cubnf import parser
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if tracer is None:
        return parser.parse_file(text)
    return tracer.run("setup.parse", parser.parse_file, text)


def _check_op(cli, decl):
    entry = cli.check_one(decl, fuel=FUEL, strict=False)
    return [entry["status"], [e["kind"] for e in entry["errors"]],
            [w["kind"] for w in entry["warnings"]]]


def _subst_op(mods, a, b, target):
    """What `cubnf subst` and `cubnf eq` do after loading: substitute into
    both members, re-check the result for the first, compare the two
    results, print the first."""
    engine, syntax, checker, parser, sexp, cof = mods
    r = {"0": cof.ZERO, "1": cof.ONE}.get(target) or cof.IVar(target)
    ra = engine.subst_i_nf(a.ctx, a.term, "i", r)
    rb = engine.subst_i_nf(b.ctx, b.term, "i", r)
    ctx2 = syntax.ctx_subst_i(a.ctx, "i", r)
    ty2 = syntax.subst_i_tp(a.ty, "i", r)
    ck = checker.Checker(fuel=FUEL, strict=False)
    errors = []
    try:
        ck.check_nf(ctx2, ra, ty2)
    except checker.CheckError as e:
        errors.append(e.kind)
    equal = engine.eq_nf(ctx2, ra, rb, ty2)
    text = sexp.write(parser.print_nf(ra))
    return [bool(equal), text, errors, [w.kind for w in ck.warnings]]


def run_file(mode: str, path: str, span_path: str | None) -> dict:
    from cubnf import checker, cli, cof, engine, nf, parser, sexp, syntax
    t_imported = time.monotonic()
    tracer = None
    if span_path:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    steps0 = getattr(nf, "REWRITE_STEPS", None)
    steps0 = steps0[0] if steps0 is not None else None
    decls = _load(path, tracer)
    t_ready = time.monotonic()

    if mode == "check":
        jobs = [(_check_op, (cli, d)) for d in decls]
    else:
        mods = (engine, syntax, checker, parser, sexp, cof)
        jobs = [(_subst_op, (mods, a, b, target))
                for a, b in zip(decls[::2], decls[1::2]) for target in ("0", "1", "j")]
    import calib
    calib.kernel_s()   # warm-up
    cal, cal_at, since = [calib.kernel_s()], [0], 0.0
    clock = time.perf_counter
    results, times = [], []
    for n, (fn, args) in enumerate(jobs):
        t0 = clock()
        try:
            out = fn(*args) if tracer is None else tracer.run("op", fn, *args)
        except Exception as e:  # an op that raises is a failed op, not a crashed run
            out = ["raised", f"{type(e).__name__}: {e}"]
        times.append(clock() - t0)
        results.append(out)
        since += times[-1]
        if since >= CAL_EVERY_S or n + 1 == len(jobs):
            cal.append(calib.kernel_s())
            cal_at.append(n + 1)
            since = 0.0

    import hashlib
    import json
    import resource
    if mode == "subst":   # compare printed results by digest to keep the pipe small
        for out in results:
            if out[0] != "raised":
                out[1] = hashlib.sha256(out[1].encode()).hexdigest()
    report = {"t_imported": t_imported, "t_ready": t_ready, "times": times,
              "cal": cal, "cal_at": cal_at, "results": results,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["trace"] = tracer.summary()
        steps = getattr(nf, "REWRITE_STEPS", None)
        if steps is not None and steps0 is not None:
            report["trace"]["rewrite_steps"] = steps[0] - steps0
        tracer.dump(span_path)
    return report


def run_corpus() -> dict:
    """Every positive corpus declaration is accepted; every negative file
    raises the error kind its first line names."""
    import glob
    from cubnf import cli, parser
    from cubnf.sexp import ParseError
    failures = []
    corpus = os.path.join(ROOT, "corpus")
    positives = sorted(glob.glob(os.path.join(corpus, "positive", "*.cub")))
    negatives = sorted(glob.glob(os.path.join(corpus, "negative", "*.cub")))
    for path in positives + negatives:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.basename(path)
        expect = text.splitlines()[0].split("; expect:")[1].strip() if path in negatives else None
        try:
            decls = parser.parse_file(text)
        except ParseError:
            if expect != "parse":
                failures.append(f"{name}: unexpected parse error")
            continue
        entries = [cli.check_one(d, fuel=FUEL, strict=False) for d in decls]
        if expect is None:
            failures += [f"{name}#{n}: {e['status']}" for n, e in enumerate(entries)
                         if e["status"] not in ("ok", "warning")]
        elif expect not in [err["kind"] for e in entries for err in e["errors"]]:
            failures.append(f"{name}: {expect} not reported")
    return {"files": len(positives) + len(negatives), "failures": failures}


class _Capped(BaseException):
    pass


def _on_alarm(signum, frame):
    raise _Capped()


def run_sweep(cap_s: float, k_limit: int = 14) -> dict:
    """Boundary of the k-cube, k = 4, 5, ...: time entailment of the first
    variable's boundary from it, and its equivalence with the same meet in
    reverse order. Each point stops at cap_s; an axis ends at its first
    capped point. Both answers are true, and are checked."""
    import signal
    from cubnf import cof

    def boundary(names):
        return cof.Meet(tuple(cof.Join((cof.Eq(cof.IVar(v), cof.ZERO),
                                        cof.Eq(cof.IVar(v), cof.ONE))) for v in names))

    def timed(fn):
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        t0 = time.perf_counter()
        try:
            answer = fn()
        except _Capped:
            return None, cap_s
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return answer, time.perf_counter() - t0

    signal.signal(signal.SIGALRM, _on_alarm)
    out = {"entail_ms": {}, "eq_ms": {}, "k_max": 3, "eq_k_max": 3, "wrong": []}
    live = {"entail": True, "eq": True}
    for k in range(4, k_limit + 1):
        names = [f"v{n}" for n in range(1, k + 1)]
        hyp = boundary(names)
        axes = {"entail": lambda: cof.entails([hyp], boundary(names[:1])),
                "eq": lambda: cof.cof_eq([], hyp, boundary(names[::-1]))}
        for axis, fn in axes.items():
            if not live[axis]:
                continue
            answer, dt = timed(fn)
            out[axis + "_ms"][k] = dt * 1000
            if answer is None:
                live[axis] = False
                continue
            if answer is not True:
                out["wrong"].append(f"{axis} k={k}")
            out["k_max" if axis == "entail" else "eq_k_max"] = k
        if not any(live.values()):
            break
    return out


def main(argv: list[str]) -> int:
    import json
    mode = argv[0]
    if mode in ("check", "subst"):
        span_path = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
        report = run_file(mode, argv[1], span_path)
    elif mode == "corpus":
        report = run_corpus()
    elif mode == "sweep":
        report = run_sweep(float(argv[1]))
    else:
        print(f"unknown mode {mode}", file=sys.stderr)
        return 2
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
