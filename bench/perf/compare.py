#!/usr/bin/env python3
"""Run, summarise and compare snapstab_perf result sets (standard library only).

A result set is a directory with one JSON file per run:
{"workload": ..., "seed": ..., "trace": 0|1, "result": <the run's last line>}.
Bounds and directions come from BENCHMARK.json at the repository root.

  compare.py run --checkout DIR --out SET [--runs N] [--seconds S]
                 [--trace 0|1] [--workloads a,b] [--first-seed K]
      Run every workload N times in checkout DIR, each with another seed.
  compare.py summary SET [SET ...]
      Median, quartiles and spread (IQR / median) per (workload, metric).
  compare.py agree SET_A SET_B
      Two sets of the same code: every median within its metric's bound,
      every spread within its bound (setup_s exempt), and the exact metrics
      identical for the same (workload, seed). Exits 1 otherwise.
  compare.py pairs --parent DIR --change DIR --out OUT [--runs N] ...
      Run parent and change alternately (which side goes first alternates
      per pair), then print the verdict below.
  compare.py verdict PARENT_SET CHANGE_SET
      Per (workload, metric): "gain" when there are >= 10 seed-matched
      pairs, the change wins >= 9/10 of them and the medians differ by more
      than the parent's IQR; "unresolved" when a side's spread exceeds the bound (unless every
      change run beats every parent run); "regression" when the change's
      median is worse than the parent's by more than the bound. Exits 1 on
      any regression.
  compare.py ledger SET [SET ...] --out bench/perf/ledger/<sha>.json
      Write a ledger entry: median and quartiles per (workload, metric),
      with the SHA and nproc the runs recorded.
  compare.py validate --benchmark BENCHMARK.json --trace 0|1 -- CMD ...
      Run CMD and check its last line: the result keys, correct == true,
      and every metric BENCHMARK.json names for that trace mode, with its
      unit. The CMake smoke tests use this.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ["sim_load", "sim_rounds", "mailbox_rounds", "udp_rounds",
             "udp_lossy"]
SIM_WORKLOADS = {"sim_load", "sim_rounds"}
# Metrics that must repeat exactly for the same seed, with the workloads on
# which they are deterministic (None: every workload).
EXACT = {
    "latency_p50_steps": SIM_WORKLOADS,
    "latency_p99_steps": SIM_WORKLOADS,
    "sim.steps_per_session": None,
    "load.coalesced_ratio": None,
}


def load_benchmark(path=None):
    spec = json.loads(Path(path or ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, trace=0)
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, trace=1, bound=None)
    return spec, metrics


# A gain needs at least this many seed-matched pairs.
MIN_PAIRS = 10


def is_exact(metric, workload):
    return metric in EXACT and (EXACT[metric] is None
                                or workload in EXACT[metric])


# --- running -----------------------------------------------------------------

def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line")


def checkout_sha(checkout):
    if not (Path(checkout) / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short",
                          "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_once(checkout, workload, seed, seconds, trace, out_dir):
    cmd = [sys.executable, "bench/perf/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = last_json_line(proc.stdout)
    except ValueError:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: no result "
                         f"(exit {proc.returncode})")
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "seconds": seconds, "sha": checkout_sha(checkout),
              "nproc": os.cpu_count(), "exit": proc.returncode,
              "result": result}
    path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"  {checkout}: {workload} seed {seed} trace {trace} -> "
          f"correct={result['correct']}", flush=True)
    return record


def workloads_of(arg):
    return arg.split(",") if arg else WORKLOADS


def cmd_run(a):
    for w in workloads_of(a.workloads):
        for i in range(a.runs):
            run_once(a.checkout, w, a.first_seed + i, a.seconds, a.trace,
                     Path(a.out))


def cmd_pairs(a):
    out = Path(a.out)
    sides = [("parent", a.parent), ("change", a.change)]
    for w in workloads_of(a.workloads):
        for i in range(a.runs):
            order = sides if i % 2 == 0 else sides[::-1]
            for name, checkout in order:
                run_once(checkout, w, a.first_seed + i, a.seconds, a.trace,
                         out / name)
    return verdict(load_set(out / "parent"), load_set(out / "change"))


# --- statistics ----------------------------------------------------------------

def load_set(path):
    """{(workload, trace): {metric: {seed: value}}} plus failures."""
    data, failures = {}, []
    for f in sorted(Path(path).glob("*.json")):
        rec = json.loads(f.read_text())
        res = rec["result"]
        if not res.get("correct") or res.get("failed", 0):
            failures.append(f.name)
        key = (rec["workload"], rec["trace"])
        for name, m in res["metrics"].items():
            data.setdefault(key, {}).setdefault(name, {})[rec["seed"]] = \
                m["value"]
    return data, failures


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)


def fmt(v):
    return f"{v:.6g}"


def cmd_summary(a):
    _, metrics = load_benchmark()
    for path in a.sets:
        data, failures = load_set(path)
        print(f"== {path}" + (f"  FAILED RUNS: {failures}" if failures
                              else ""))
        print(f"{'workload':15} {'metric':30} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for (w, trace), by_metric in sorted(data.items()):
            for name, by_seed in by_metric.items():
                vals = list(by_seed.values())
                q1, med, q3 = quartiles(vals)
                bound = metrics.get(name, {}).get("bound")
                s = spread(vals)
                flag = ""
                if bound is not None and name != "setup_s":
                    flag = ("steady" if s < bound / 3 else
                            "ok" if s <= bound else "WIDE")
                print(f"{w:15} {name:30} {len(vals):3} {fmt(med):>12} "
                      f"{fmt(q1):>12} {fmt(q3):>12} {s:8.2%} "
                      f"{'' if bound is None else f'{bound:.2f}':>6} {flag}")


def cmd_agree(a):
    _, metrics = load_benchmark()
    (da, fa), (db, fb) = load_set(a.set_a), load_set(a.set_b)
    problems = [f"failed runs: {f}" for f in fa + fb]
    for key in sorted(set(da) & set(db)):
        w, _ = key
        for name in sorted(set(da[key]) & set(db[key])):
            va, vb = da[key][name], db[key][name]
            bound = metrics.get(name, {}).get("bound")
            if is_exact(name, w):
                for seed in sorted(set(va) & set(vb)):
                    if va[seed] != vb[seed]:
                        problems.append(f"{w} {name} seed {seed}: "
                                        f"{va[seed]} != {vb[seed]} (exact)")
            if bound is None:
                continue
            ma = statistics.median(va.values())
            mb = statistics.median(vb.values())
            rel = abs(mb - ma) / abs(ma) if ma else (0.0 if mb == ma
                                                      else math.inf)
            status = "agree" if rel <= bound else "DISAGREE"
            if status != "agree":
                problems.append(f"{w} {name}: medians {fmt(ma)} vs {fmt(mb)}")
            if name != "setup_s":
                for label, vals in (("A", va), ("B", vb)):
                    if spread(list(vals.values())) > bound:
                        problems.append(f"{w} {name}: spread of set {label} "
                                        f"exceeds bound {bound}")
            print(f"{w:15} {name:30} {fmt(ma):>12} {fmt(mb):>12} "
                  f"{rel:8.2%} <= {bound:.2f} {status}")
    for p in problems:
        print("PROBLEM:", p)
    print("sets agree" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def verdict(parent, change):
    _, metrics = load_benchmark()
    (dp, fp), (dc, fc) = parent, change
    regressions = 0
    if fc:
        print(f"change has failed runs: {fc}")
        regressions += 1
    print(f"{'workload':15} {'metric':26} {'parent':>12} {'p.q1':>11} "
          f"{'p.q3':>11} {'change':>12} {'c.q1':>11} {'c.q3':>11} "
          f"{'wins':>6}  verdict")
    for key in sorted(set(dp) & set(dc)):
        w, _ = key
        for name in sorted(set(dp[key]) & set(dc[key])):
            info = metrics.get(name)
            if info is None:
                continue
            lower = info["better"] == "lower"
            vp, vc = dp[key][name], dc[key][name]
            seeds = sorted(set(vp) & set(vc))
            wins = sum(1 for s in seeds
                       if (vc[s] < vp[s] if lower else vc[s] > vp[s]))
            p1, pm, p3 = quartiles(list(vp.values()))
            c1, cm, c3 = quartiles(list(vc.values()))
            better = cm < pm if lower else cm > pm
            worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm \
                else 0.0
            all_better = all((c < p if lower else c > p)
                             for c in vc.values() for p in vp.values())
            bound = info["bound"]
            if (len(seeds) >= MIN_PAIRS and better
                    and wins >= math.ceil(0.9 * len(seeds))
                    and abs(cm - pm) > p3 - p1):
                v = "gain"
            elif bound is None:
                v = "-"
            elif (name != "setup_s" and not all_better and
                  max(spread(list(vp.values())),
                      spread(list(vc.values()))) > bound):
                v = "unresolved"
            elif worse_by > bound:
                v = "REGRESSION"
                regressions += 1
            else:
                v = "no regression"
            print(f"{w:15} {name:26} {fmt(pm):>12} {fmt(p1):>11} "
                  f"{fmt(p3):>11} {fmt(cm):>12} {fmt(c1):>11} {fmt(c3):>11} "
                  f"{wins:>3}/{len(seeds):<2}  {v}")
    return 1 if regressions else 0


def cmd_verdict(a):
    return verdict(load_set(a.parent_set), load_set(a.change_set))


def cmd_ledger(a):
    _, metrics = load_benchmark()
    entry = {"sha": set(), "nproc": set(), "seconds": set(), "workloads": {}}
    for path in a.sets:
        for f in sorted(Path(path).glob("*.json")):
            rec = json.loads(f.read_text())
            for k in ("sha", "nproc", "seconds"):
                entry[k].add(rec.get(k))
        data, failures = load_set(path)
        if failures:
            raise SystemExit(f"{path}: failed runs {failures}")
        for (w, _), by_metric in data.items():
            for name, by_seed in by_metric.items():
                q1, med, q3 = quartiles(list(by_seed.values()))
                entry["workloads"].setdefault(w, {})[name] = {
                    "median": med, "q1": q1, "q3": q3, "runs": len(by_seed),
                    "unit": metrics.get(name, {}).get("unit")}
    for k in ("sha", "nproc", "seconds"):
        vals = sorted(entry[k], key=str)
        entry[k] = vals[0] if len(vals) == 1 else vals
    Path(a.out).parent.mkdir(parents=True, exist_ok=True)
    Path(a.out).write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    print(f"wrote {a.out}")


def cmd_validate(a):
    _, metrics = load_benchmark(a.benchmark)
    proc = subprocess.run(a.cmd, capture_output=True, text=True)
    errors = []
    try:
        result = last_json_line(proc.stdout)
    except ValueError as e:
        result = None
        errors.append(str(e))
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}")
    if result is not None:
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"result keys {sorted(result)}")
        if result.get("correct") is not True:
            errors.append("correct is not true")
        if not isinstance(result.get("attempted"), int) or \
                result["attempted"] < 1:
            errors.append("attempted < 1")
        got = result.get("metrics", {})
        for name, info in metrics.items():
            if info["trace"] != a.trace:
                continue
            m = got.get(name)
            if m is None:
                errors.append(f"missing metric {name}")
            elif m.get("unit") != info["unit"] or \
                    not isinstance(m.get("value"), (int, float)):
                errors.append(f"metric {name}: {m} (want unit {info['unit']})")
    if errors:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        for e in errors:
            print("FAIL:", e)
        return 1
    print(f"OK: {len(result['metrics'])} metrics, "
          f"{result['attempted']} sessions")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def run_args(sp):
        sp.add_argument("--runs", type=int, default=5)
        sp.add_argument("--seconds", type=int,
                        default=load_benchmark()[0]["run_seconds"])
        sp.add_argument("--trace", type=int, default=0, choices=[0, 1])
        sp.add_argument("--workloads", default="")
        sp.add_argument("--first-seed", type=int, default=1)

    sp = sub.add_parser("run")
    sp.add_argument("--checkout", default=str(ROOT))
    sp.add_argument("--out", required=True)
    run_args(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("pairs")
    sp.add_argument("--parent", required=True)
    sp.add_argument("--change", required=True)
    sp.add_argument("--out", required=True)
    run_args(sp)
    sp.set_defaults(fn=cmd_pairs, runs=MIN_PAIRS)

    sp = sub.add_parser("summary")
    sp.add_argument("sets", nargs="+")
    sp.set_defaults(fn=cmd_summary)

    sp = sub.add_parser("agree")
    sp.add_argument("set_a")
    sp.add_argument("set_b")
    sp.set_defaults(fn=cmd_agree)

    sp = sub.add_parser("verdict")
    sp.add_argument("parent_set")
    sp.add_argument("change_set")
    sp.set_defaults(fn=cmd_verdict)

    sp = sub.add_parser("ledger")
    sp.add_argument("sets", nargs="+")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_ledger)

    sp = sub.add_parser("validate")
    sp.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    sp.add_argument("--trace", type=int, default=0, choices=[0, 1])
    sp.add_argument("cmd", nargs=argparse.REMAINDER)
    sp.set_defaults(fn=cmd_validate)

    a = p.parse_args()
    if a.command == "validate" and a.cmd[:1] == ["--"]:
        a.cmd = a.cmd[1:]
    sys.exit(a.fn(a) or 0)


if __name__ == "__main__":
    main()
