#!/usr/bin/env python3
"""A/B-compare two revisions on one perfbench workload, in alternating pairs.

    tools/bench_ab.py --parent REV --change REV|DIR --workload W \
        --seeds A-B [--seconds S] [--trace] [--record] [--scratch DIR]

Each REV is exported (`git archive`) into its own directory under the
scratch directory and built once through that tree's perfbench/run.py
(Release, into its .bench_build/). A DIR is used as it stands, e.g. `.`
for the working tree. For every seed, both sides run
`perfbench/run.py --workload W --seed N --seconds S`; the side that runs
first alternates from seed to seed. With --trace, each seed also runs a
traced pair, in the same order, for the per-layer metrics.

The tool exits 1 when any run fails: a non-zero exit, "correct": false, a
failed operation, or two sides that print different `# cube hash` lines
for a seed. Otherwise it prints, for each gate metric of BENCHMARK.json
(and with --trace each per-layer metric), both medians, each side's IQR
over median, the change/parent ratio of the medians, the median of the
per-pair change/parent ratios (one noisy seed cannot swing it), in how
many pairs the change is lower, and the worst CPU steal share of any run. --record appends the
result to BENCH_<workload>.json at the repository root.
"""

import argparse
import datetime
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print(f"bench_ab: {message}", file=sys.stderr)
    sys.exit(1)


def git(*args, cwd=REPO, check=True):
    out = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                         text=True)
    if out.returncode != 0:
        if not check:
            return None
        fail(f"git {' '.join(args)}: {out.stderr.strip()}")
    return out.stdout.strip()


def parse_seeds(text):
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if not match:
        fail(f"--seeds wants A-B or A, got {text!r}")
    first = int(match.group(1))
    last = int(match.group(2) or first)
    if last < first:
        fail(f"--seeds {text}: empty range")
    return list(range(first, last + 1))


class Side:
    """One compared tree: an exported revision or a directory as it is."""

    def __init__(self, name, spec, scratch):
        self.name = name
        if os.path.isdir(spec):
            self.root = os.path.abspath(spec)
            head = git("rev-parse", "HEAD", cwd=self.root, check=False)
            dirty = git("status", "--porcelain", "--untracked-files=no",
                        cwd=self.root, check=False)
            self.sha = (head + ("+dirty" if dirty else "") if head
                        else "dir:" + self.root)
        else:
            self.sha = git("rev-parse", "--verify", spec + "^{commit}")
            self.root = os.path.join(scratch, self.sha)
            if not os.path.isfile(os.path.join(self.root, ".exported")):
                os.makedirs(self.root, exist_ok=True)
                archive = subprocess.Popen(["git", "archive", self.sha],
                                           cwd=REPO, stdout=subprocess.PIPE)
                untar = subprocess.run(["tar", "-x", "-C", self.root],
                                       stdin=archive.stdout)
                archive.stdout.close()
                if archive.wait() != 0 or untar.returncode != 0:
                    fail(f"could not export {spec} into {self.root}")
                open(os.path.join(self.root, ".exported"), "w").close()
        self.env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")

    def build(self):
        """Builds perfbench with the tree's own run.py build step."""
        sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
        path = os.path.join(self.root, "perfbench", "run.py")
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        # The build dir run() uses under self.env's CARGO_TARGET_DIR.
        run.build(os.path.join(self.root, "perfbench"),
                  os.path.join(self.root, ".bench_build", "perfbench"))

    def run(self, workload, seed, seconds, trace):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--trace", "1" if trace else "0"]
        done = subprocess.run(cmd, cwd=self.root, env=self.env,
                              capture_output=True, text=True)
        what = f"{self.name} seed {seed}{' traced' if trace else ''}"
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr[-2000:])
            fail(f"{what}: exit {done.returncode}")
        result = json.loads(lines[-1])
        if result.get("correct") is not True:
            fail(f"{what}: an answer was wrong: {lines[-1][:200]}")
        if result.get("failed", 0) != 0:
            fail(f"{what}: {result['failed']} operations failed")
        host, cube_hash = {}, None
        for line in lines:
            if line.startswith("# host "):
                host = json.loads(line[len("# host "):])
            elif line.startswith("# cube hash "):
                cube_hash = line.split()[3]
        return {"metrics": {k: v["value"]
                            for k, v in result["metrics"].items()},
                "host": host, "cube_hash": cube_hash}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(names, parent_runs, change_runs):
    """Per metric: medians, IQR over median, the ratio of the medians, the
    median of the per-pair ratios and pairs lower, in name order."""
    rows = {}
    for name in names:
        pairs = [(p["metrics"][name], c["metrics"][name])
                 for p, c in zip(parent_runs, change_runs)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        pair_ratios = [c / p for p, c in pairs if p]
        rows[name] = {
            "parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "ratio": cm / pm if pm else None,
            "pair_ratio": (statistics.median(pair_ratios) if pair_ratios
                           else None),
            "lower": sum(1 for p, c in pairs if c < p),
            "pairs": len(pairs),
        }
    return rows


def spread(side):
    """IQR over median."""
    if not side["median"]:
        return float("nan")
    return (side["q3"] - side["q1"]) / side["median"]


def print_table(title, rows, steal):
    print(f"\n{title} (worst steal {steal:.3f})")
    print(f"{'metric':34} {'parent':>12} {'change':>12} {'p iqr/m':>8} "
          f"{'c iqr/m':>8} {'ratio':>7} {'pair':>7} {'lower':>7}")

    def fmt(ratio):
        return f"{ratio:.3f}" if ratio is not None else "-"

    for name, row in rows.items():
        p, c = row["parent"], row["change"]
        print(f"{name:34} {p['median']:12.6g} {c['median']:12.6g} "
              f"{spread(p):8.3f} {spread(c):8.3f} {fmt(row['ratio']):>7} "
              f"{fmt(row['pair_ratio']):>7} "
              f"{row['lower']:>3}/{row['pairs']:<3}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True,
                        choices=["build", "explore", "stream", "routed"])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--scratch",
                        default=os.path.join(tempfile.gettempdir(),
                                             "scube-bench-ab"))
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    gates = [m["name"] for m in benchmark["end_to_end"]]
    layers = [m["name"] for m in benchmark["per_layer"]]

    os.makedirs(args.scratch, exist_ok=True)
    sides = {"parent": Side("parent", args.parent, args.scratch),
             "change": Side("change", args.change, args.scratch)}
    built = set()
    for side in sides.values():
        if side.root not in built:
            side.build()
            built.add(side.root)

    runs = {"parent": [], "change": []}
    traced = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        passes = [(False, runs)] + ([(True, traced)] if args.trace else [])
        for trace, into in passes:
            got = {}
            for name in order:
                got[name] = sides[name].run(args.workload, seed, args.seconds,
                                            trace)
                into[name].append(got[name])
            hashes = {got[name]["cube_hash"] for name in order}
            if len(hashes) != 1:
                fail(f"seed {seed}: cube hashes differ: "
                     f"parent {got['parent']['cube_hash']}, "
                     f"change {got['change']['cube_hash']}")
        print(f"seed {seed}: " + ", ".join(
            f"{name} {runs[name][-1]['metrics'].get('cpu_us_per_op', 0):.6g}"
            for name in order) + " cpu_us_per_op", flush=True)

    all_runs = runs["parent"] + runs["change"] + traced["parent"] + \
        traced["change"]
    steal = max(r["host"].get("cpu_steal_share", 0.0) for r in all_runs)
    gate_rows = compare(gates, runs["parent"], runs["change"])
    print(f"\n{args.workload}: parent {sides['parent'].sha[:12]} vs change "
          f"{sides['change'].sha[:12]}, seeds {args.seeds}, "
          f"{args.seconds:g} s, {len(seeds)} pairs")
    print_table("gate metrics", gate_rows, steal)
    layer_rows = {}
    if args.trace:
        layer_rows = compare(layers, traced["parent"], traced["change"])
        print_table("per-layer metrics (traced runs)", layer_rows, steal)

    if args.record:
        host = runs["change"][0]["host"]
        entry = {
            "recorded": datetime.datetime.now(datetime.timezone.utc)
                        .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "parent": sides["parent"].sha,
            "change": sides["change"].sha,
            "host": {k: host.get(k) for k in ("nproc", "compiler",
                                              "build_type")},
            "worst_steal": steal,
            "seeds": seeds,
            "seconds": args.seconds,
            "gates": gate_rows,
            "layers": {name: {"parent": row["parent"]["median"],
                              "change": row["change"]["median"],
                              "pair_ratio": row["pair_ratio"]}
                       for name, row in layer_rows.items()},
        }
        path = os.path.join(REPO, f"BENCH_{args.workload}.json")
        entries = []
        if os.path.exists(path):
            with open(path) as f:
                entries = json.load(f)
        entries.append(entry)
        with open(path, "w") as f:
            json.dump(entries, f, indent=1)
            f.write("\n")
        print(f"\nrecorded in {os.path.relpath(path, REPO)}")


if __name__ == "__main__":
    main()
