"""Seeded end-to-end and per-layer benchmark for cubnf.

    python3 bench/run.py --workload gen-check --seed 0 --seconds 20 --trace 0

Workloads, metrics and the reasons for them are in bench/README.md. One
client, closed loop: the parent generates one input file at a time from
the seed, hands it to a fresh interpreter (bench/child.py) that imports
cubnf, parses the file and runs every op once, waits for it, and judges
every verdict against the generator's reference. With --trace 0 it goes
on with further files until the ops have run for --seconds, then prints
the end-to-end metrics, with every time scaled to a reference host speed
by the calibration kernel of bench/calib.py. With --trace 1 it runs file 0 twice untraced and
twice traced, checks that the traced counts repeat exactly, runs the
face-lattice width sweep, and prints the per-layer metrics.

The last line of standard output is the JSON result. The exit code is 0
when a result was printed (its "correct" field says whether every verdict
matched), and 2 with no result when the run could not measure: cubnf or
its corpus missing, a golden-corpus verdict wrong, or an input whose
digest differs from its pin in bench/pins.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "pins.json")

import calib  # noqa: E402  (bench/ is the script directory)
import workloads as W  # noqa: E402

MODES = {"gen-check": "check", "cof-boundary": "check", "subst-eq": "subst"}
MIN_FILES = 3            # set-up is the median over at least this many fresh processes
WALL_LIMIT_S = 100       # no new input file is started after this much wall time
RUN_LIMIT_S = 170        # a child still running this long after the start is killed
SWEEP_CAP_S = 1.0
SWEEP_REPORTED = {"entail": range(4, 9), "eq": range(4, 8)}
CANARY = [(0, 0), (0, 1)]   # (seed, file) pinned for every workload
UNKNOWN = "side-condition-unknown"


class BenchError(Exception):
    """The run cannot produce numbers."""


# ---------------------------------------------------------------------------
# Processes and inputs


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("CUBNF_FUEL", None)          # fuel is fixed at 1000 by the ops themselves
    env["PYTHONHASHSEED"] = "0"          # set order is part of what traced counts repeat
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one child to completion, killing it at the monotonic `deadline`;
    return its report and the monotonic time just before it was started."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, *args], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"child {args[0]} still running at the {RUN_LIMIT_S}s limit") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {' '.join(args)} failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def _pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def generate(workload: str, seed: int, index: int, pins: dict) -> tuple[str, list]:
    """Write input file `index` of the run to the work directory; return
    its path and the reference verdicts. A text whose (seed, index) is
    pinned must match its digest."""
    text, expect = W.WORKLOADS[workload](seed, index)
    want = pins[workload].get(f"{seed}:{index}")
    got = W.digest(text)
    if want is not None and want != got:
        raise BenchError(f"{workload} input {seed}:{index} digest {got} != pinned {want}")
    path = os.path.join(WORK, f"{workload}-{seed}-{index}.cub")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path, expect


def check_canaries(workload: str, pins: dict) -> None:
    for seed, index in CANARY:
        text, _ = W.WORKLOADS[workload](seed, index)
        if W.digest(text) != pins[workload][f"{seed}:{index}"]:
            raise BenchError(f"{workload} generator changed: canary {seed}:{index} digest differs")


def check_corpus(deadline: float) -> None:
    report, _ = spawn(["corpus"], deadline)
    if report["failures"]:
        raise BenchError("golden corpus verdicts changed: " + "; ".join(report["failures"][:10]))


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model, "loadavg": list(os.getloadavg()), "fuel": 1000}


# ---------------------------------------------------------------------------
# Verdicts


def judge(workload: str, results: list, expect: list) -> tuple[int, int, list[str]]:
    """Count ops whose verdict differs from the reference (or that raised),
    and ops that ended in an unknown side condition."""
    if len(results) != len(expect):
        raise BenchError(f"{len(results)} results for {len(expect)} ops")
    failed, unknown, notes = 0, 0, []
    for n, (out, want) in enumerate(zip(results, expect)):
        if out[0] == "raised":
            failed += 1
            notes.append(f"op {n} raised {out[1]}")
            continue
        if MODES[workload] == "check":
            status, errors, warnings = out
            ok = (status == "ok" if want[0] == "ok"
                  else status == "error" and errors[:1] == [want[1]])
            ok = ok or (want[0] == "ok" and not errors and set(warnings) == {UNKNOWN})
        else:
            equal, text_digest, errors, warnings = out
            ok = equal == want[0] and not errors and text_digest == W.digest(want[1])
        if UNKNOWN in warnings:
            unknown += 1
        if not ok:
            failed += 1
            notes.append(f"op {n}: got {out}, want {want}")
    return failed, unknown, notes


# ---------------------------------------------------------------------------
# End-to-end run


def run_untraced(workload: str, seed: int, seconds: float, pins: dict,
                 deadline: float) -> dict:
    raw: list[float] = []       # op times as measured
    times: list[float] = []     # op times scaled to the reference speed (calib.py)
    rates, medians, raw_rates, raw_medians = [], [], [], []
    setup, raw_setup, imports, kernel, rss = [], [], [], [], []
    failed = unknown = 0
    notes: list[str] = []
    start = time.monotonic()
    index = 0
    while (sum(raw) < seconds or index < MIN_FILES) and time.monotonic() - start < WALL_LIMIT_S:
        path, expect = generate(workload, seed, index, pins)
        cal0 = calib.kernel_s()
        report, t_spawn = spawn([MODES[workload], path], deadline)
        raw_setup.append(report["t_ready"] - t_spawn)
        setup.append(raw_setup[-1] * 2 * calib.REF_S / (cal0 + report["cal"][0]))
        imports.append(report["t_imported"] - t_spawn)
        kernel += [cal0] + report["cal"]
        rss.append(report["rss_kb"])
        file_times = calib.scaled(report["times"], report["cal"], report["cal_at"])
        raw.extend(report["times"])
        raw_rates.append(len(report["times"]) / sum(report["times"]))
        raw_medians.append(statistics.median(report["times"]))
        times.extend(file_times)
        rates.append(len(file_times) / sum(file_times))
        medians.append(statistics.median(file_times))
        f, u, n = judge(workload, report["results"], expect)
        failed, unknown, notes = failed + f, unknown + u, notes + n
        index += 1
    attempted = len(times)
    # Throughput and median are medians over files: what the scaling leaves
    # of the host's drift moves a few files rather than the whole figure.
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (statistics.median(medians) * 1000, "ms"),
        "op_ms_p90": (_p90(times) * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
        "decided_share": (1 - unknown / attempted, "share"),
        "verified_share": (1 - failed / attempted, "share"),
    }
    info = {"files": index, "op_samples": attempted, "op_seconds": sum(raw),
            "samples_beyond_p90": sum(t * 1000 > metrics["op_ms_p90"][0] for t in times),
            "unscaled": {"ops_per_s": statistics.median(raw_rates),
                         "op_ms_p50": statistics.median(raw_medians) * 1000,
                         "op_ms_p90": _p90(raw) * 1000,
                         "setup_s": statistics.median(raw_setup)},
            "kernel_ms": {"median": statistics.median(kernel) * 1000,
                          "min": min(kernel) * 1000, "max": max(kernel) * 1000,
                          "runs": len(kernel)},
            "file_ops_per_s": rates, "file_op_ms_p50": [m * 1000 for m in medians],
            "setup_samples": setup, "setup_import_s": statistics.median(imports),
            "unknown": unknown, "failures": notes[:20]}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def _p90(times: list[float]) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# Traced run


COUNT_KEYS = ("calls", "outcomes", "dnf_distinct", "dnf_branches_max", "read_bytes",
              "rewrite_steps")


def run_traced(workload: str, seed: int, pins: dict, deadline: float) -> dict:
    mode = MODES[workload]
    path, expect = generate(workload, seed, 0, pins)
    plains, runs = [], []
    for tag in ("a", "b"):   # untraced and traced alternate, so drift hits both alike
        plains.append(spawn([mode, path], deadline))
        span_path = os.path.join(WORK, f"spans-{workload}-{seed}-{tag}.json")
        runs.append(spawn([mode, path, "--trace", span_path], deadline)[0])
    plain, t_spawn = plains[0]
    failed, unknown, notes = 0, 0, []
    for report in [p for p, _ in plains] + runs:
        f, u, n = judge(workload, report["results"], expect)
        failed, unknown, notes = failed + f, unknown + u, notes + n
    a, b = runs[0]["trace"], runs[1]["trace"]
    repeat = [k for k in COUNT_KEYS if a.get(k) != b.get(k)]
    if repeat:
        notes.append(f"traced counts differ between two runs: {repeat}")
    sweep, _ = spawn(["sweep", str(SWEEP_CAP_S)], deadline)
    notes += [f"sweep answer wrong at {w}" for w in sweep["wrong"]]

    calls, self_s, by_root = a["calls"], a["self_s"], a["self_by_root"]
    op_total = sum(v for k, v in by_root.items() if k.startswith("op|"))
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    for layer in ("cof.dnf", "cof.entails", "parser.parse_decl", "engine.subst",
                  "engine.canon", "engine.eq", "nf.mk", "convert", "checker.check_nf",
                  "cli.check_one"):
        put(f"{layer}.calls", calls.get(layer, 0), "count")
        put(f"{layer}.self_s", self_s.get(layer, 0.0), "s")
    put("cof.dnf.distinct", a["dnf_distinct"], "count")
    put("cof.dnf.distinct_per_call", a["dnf_distinct"] / max(calls.get("cof.dnf", 0), 1), "ratio")
    put("cof.dnf.branches_max", a["dnf_branches_max"], "count")
    put("cof.dnf.op_share", by_root.get("op|cof.dnf", 0.0) / op_total, "ratio")
    put("engine.subst.op_share", by_root.get("op|engine.subst", 0.0) / op_total, "ratio")
    read_s = self_s.get("sexp.read_all", 0.0)
    put("sexp.read_all.self_s", read_s, "s")
    put("sexp.bytes_per_s", a["read_bytes"] / read_s if read_s else 0.0, "B/s")
    put("setup.parse_share",
        (plain["t_ready"] - plain["t_imported"]) / (plain["t_ready"] - t_spawn), "ratio")
    if "rewrite_steps" in a:   # a program-owned counter: absent once the program drops it
        put("nf.rewrite_steps", a["rewrite_steps"], "count")
    put("convert.unknown", a["outcomes"].get("unknown", 0), "count")
    put("convert.no", a["outcomes"].get("no", 0), "count")
    put("trace.overhead", _scaled_total(runs) / _scaled_total([p for p, _ in plains]) - 1,
        "ratio")
    for axis, ks in SWEEP_REPORTED.items():
        prefix = "cof.sweep.k" if axis == "entail" else "cof.sweep.eq_k"
        for k in ks:
            put(f"{prefix}{k}_ms", sweep[f"{axis}_ms"].get(str(k), SWEEP_CAP_S * 1000), "ms")
    put("cof.sweep.k_max", sweep["k_max"], "k")
    put("cof.sweep.eq_k_max", sweep["eq_k_max"], "k")

    non_cof = {k.split("|", 1)[1]: v for k, v in by_root.items()
               if k.startswith("op|") and not k.startswith("op|cof.") and k != "op|op"}
    info = {"op_samples": len(expect), "unknown": unknown, "missing_entries": a["missing"],
            "largest_non_cof_op_layer": max(non_cof, key=non_cof.get) if non_cof else None,
            "sweep_ms": {"entail": sweep["entail_ms"], "eq": sweep["eq_ms"]},
            "failures": notes[:20]}
    return {"attempted": len(expect), "failed": failed + len(repeat), "metrics": metrics,
            "info": info}


def _scaled_total(reports: list[dict]) -> float:
    return sum(sum(calib.scaled(r["times"], r["cal"], r["cal_at"])) for r in reports)


# ---------------------------------------------------------------------------
# Entry point


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(MODES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cubnf", "__init__.py")):
        print(f"cubnf sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    env = environment()
    try:
        pins = _pins()
        check_canaries(args.workload, pins)
        check_corpus(deadline)
        calib.kernel_s()   # warm-up
        if args.trace:
            result = run_traced(args.workload, args.seed, pins, deadline)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, pins, deadline)
    except BenchError as e:
        print(f"benchmark refused to report: {e}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, **result}
    with open(os.path.join(WORK, f"result-{args.workload}-{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("env " + json.dumps(env))
    print("info " + json.dumps(result["info"], default=str))
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
