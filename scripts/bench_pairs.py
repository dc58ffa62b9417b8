"""Paired benchmark runs of this checkout against a git ref.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload ts_kp_fine \
        [--workload bd_kp_fine ...] --pairs 10 --seconds 40 [--seed 1] \
        [--json BENCH_label.json]

The ref is unpacked with `git archive` into a temporary directory.  Before
the pairs, each workload runs `perfbench/run.py --trace 1 --seconds 1` once
on each side, with the first pair's seed, so that a traced replay that
crashes, reports `correct: false` or counts failed replays is flagged.  Each
pair runs `perfbench/run.py --trace 0` once in that directory and once in
this checkout, with the same seed, and the side that goes first alternates
from pair to pair so that a drift in machine speed favours neither.  For
every end-to-end metric of BENCHMARK.json the script prints both sides'
median and quartiles, the number of pairs the checkout wins, the signed gap
of the medians (checkout minus base), a gain verdict and the largest
difference within any pair.  The gain is met when the checkout wins at least
nine tenths of the pairs and its median is better than the base median, in
the metric's `better` direction, by more than the base's interquartile
range.  Each `--workload` given runs its own pairs, with the same seeds, one
workload after the other.  A metric whose checkout median is worse than the
base median by more than the metric's relative `bound` in BENCHMARK.json is
flagged, and so is a run, traced or not, that fails, reports
`correct: false` or counts failed solves.  The same summary, with no gain
verdict and no bound, is printed for each run's raw wall times, which
run.py writes to `perfbench/out/<workload>-seed<n>-trace0.json` in that
run's tree: `raw_setup_s` and `raw_solve_s`, the medians of set-up and
solve before the speed gauge scales them.  They are not gated; they show
whether a gain in a gauged metric comes from the program or from the gauge.
With `--json PATH` every
workload's summary, its traced runs' outcome included, is also written to
PATH as one JSON object, together with the seeds, the base ref and its
commit, the checkout's commit and whether its tracked files are clean, and
the machine as run.py reports it.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# raw wall times in run.py's record of an untraced run, not gated
RAW_TIMES = ("raw_setup_s", "raw_solve_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git ref to compare against")
    p.add_argument("--workload", required=True, action="append",
                   help="workload to run; give it again for more")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the first pair; pair i uses seed + i")
    p.add_argument("--json", type=Path, metavar="PATH",
                   help="also write the summary to PATH as JSON")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        p.error("--pairs and --seconds must be >= 1")
    return args


def unpack(ref: str, dest: Path) -> None:
    """The committed tree of ref, written under dest."""
    blob = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                          check=True, capture_output=True).stdout
    # extraction filters exist from Python 3.10.12 and 3.11.4 on
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, **safe)


def commit(ref: str) -> str:
    return subprocess.run(["git", "rev-parse", ref], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def clean() -> bool:
    """Whether the checkout's tracked files match its HEAD commit."""
    return not subprocess.run(["git", "status", "--porcelain",
                               "--untracked-files=no"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: int,
             trace: int = 0):
    """(result, problem): run.py's final JSON line, with its `env` line
    added under "env" and the RAW_TIMES of the record it wrote under "raw",
    and a note when the run failed or was not correct (None otherwise)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2])["env"] if len(lines) > 1 else None
    record = json.loads((tree / "perfbench" / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["raw"] = {name: record[name] for name in RAW_TIMES if name in record}
    if not result["correct"] or result["failed"]:
        return result, (f"correct={result['correct']}, "
                        f"{result['failed']}/{result['attempted']} failed")
    return result, None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarise(base, change, lower):
    """Both sides' median and quartiles, the pairs the checkout wins (a
    lower value wins when lower, else a higher) and the gap of the medians,
    checkout minus base."""
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
    return {
        "base": {"median": bmed, "q1": bq1, "q3": bq3, "values": base},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": change},
        "wins": sum((c < b) if lower else (c > b)
                    for b, c in zip(base, change)),
        "gap": cmed - bmed}


def row(name, s, pairs) -> str:
    """The printed line of a summarise() result s over `pairs` pairs."""
    base, change = (f"{x['median']:.4g} [{x['q1']:.4g}, {x['q3']:.4g}]"
                    for x in (s["base"], s["change"]))
    wins = f"{s['wins']}/{pairs}"
    return f"{name:<13}{base:>34}{change:>34}{wins:>7}{s['gap']:>+11.3g}"


def traced(workload, args, trees):
    """Run one short traced replay of workload on each side; returns
    ({side: outcome}, problems)."""
    outcomes, problems = {}, []
    for side in ("base", "change"):
        result, problem = run_once(trees[side], workload, args.seed, 1,
                                   trace=1)
        keep = ("correct", "attempted", "failed")
        outcomes[side] = {**({k: result[k] for k in keep} if result else {}),
                          "problem": problem}
        if problem:
            problems.append(f"{workload} traced ({side}, seed {args.seed}): "
                            f"{problem}")
        print(f"{workload} traced {side}: {'FLAGGED' if problem else 'ok'}",
              file=sys.stderr)
    return outcomes, problems


def compare(workload, args, trees, metrics):
    """Run the pairs of one workload and print their summary, then that of
    the raw wall times; returns (summary, raw summary, problems, envs,
    complete pairs)."""
    runs = {"base": [], "change": []}
    problems = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result, problem = run_once(trees[side], workload, seed,
                                       args.seconds)
            runs[side].append(result)
            if problem:
                problems.append(f"{workload} pair {i + 1} ({side}, seed "
                                f"{seed}): {problem}")
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  f"{'FLAGGED' if problem else 'ok'}", file=sys.stderr)

    pairs = [(b, c) for b, c in zip(runs["base"], runs["change"])
             if b is not None and c is not None]
    print(f"{workload}: {args.base} -> checkout, {len(pairs)} complete "
          f"pairs of {args.pairs}, {args.seconds} s each")
    print(f"{'metric':<13}{'base median [q1, q3]':>34}"
          f"{'change median [q1, q3]':>34}{'wins':>7}{'gap':>11}"
          f"  gain  max |change - base|")
    summary = {}
    for spec in metrics if pairs else []:
        name = spec["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        lower = spec["better"] == "lower"
        s = summarise(base, change, lower)
        bmed, cmed = s["base"]["median"], s["change"]["median"]
        worse = s["gap"] if lower else -s["gap"]
        gain = (10 * s["wins"] >= 9 * len(pairs)
                and -worse > s["base"]["q3"] - s["base"]["q1"])
        spread = max(abs(c - b) for b, c in zip(base, change))
        out_of_bound = worse > spec["bound"] * abs(bmed)
        print(f"{row(name, s, len(pairs))}"
              f"  {'met' if gain else 'no':<4}  {spread:.3g}")
        if out_of_bound:
            problems.append(f"{workload} {name}: change median {cmed:.4g} is "
                            f"worse than base {bmed:.4g} by more than the "
                            f"bound {spec['bound']} of the base")
        summary[name] = {
            "unit": spec["unit"], "better": spec["better"], **s,
            "gain": gain, "max_pair_difference": spread,
            "bound": spec["bound"], "out_of_bound": out_of_bound}
    raw = {}
    for name in RAW_TIMES:
        if pairs and all(name in r["raw"] for pair in pairs for r in pair):
            raw[name] = {"unit": "s", "better": "lower", "gated": False,
                         **summarise([b["raw"][name] for b, _ in pairs],
                                     [c["raw"][name] for _, c in pairs],
                                     True)}
            if len(raw) == 1:
                print("raw wall time, before the speed gauge (not gated):")
            print(row(name, raw[name], len(pairs)))
    envs = [r["env"] for r in runs["change"] if r and r["env"]]
    return summary, raw, problems, envs, len(pairs)


def main(argv=None) -> int:
    args = parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    problems, envs, workloads = [], [], {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"base": Path(tmp), "change": ROOT}
        unpack(args.base, trees["base"])
        for workload in args.workload:
            trace, trace_flagged = traced(workload, args, trees)
            summary, raw, flagged, env, complete = compare(
                workload, args, trees, metrics)
            flagged = trace_flagged + flagged
            problems += flagged
            envs += env
            workloads[workload] = {"complete_pairs": complete,
                                   "metrics": summary, "raw": raw,
                                   "traced": trace, "flagged": flagged}
    for problem in problems:
        print(f"FLAGGED {problem}")
    if args.json:
        args.json.write_text(json.dumps({
            "workloads": workloads,
            "base": {"ref": args.base, "commit": commit(args.base)},
            "checkout": {"commit": commit("HEAD"), "clean": clean()},
            "pairs": args.pairs, "seconds": args.seconds,
            "seeds": [args.seed + i for i in range(args.pairs)],
            "machine": envs[0] if envs else None}, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
