"""Start-up cost of fresh processes, compared across source trees.

    python3 bench/startup.py [--rounds N] [LABEL=]SRC [[LABEL=]SRC ...]

Each round runs, for every source tree in turn (the order alternates from
round to round), each of these in a new interpreter with PYTHONPATH=SRC:

- `import masseybrauer.cli`;
- each call of perfbench's cli-cold workload through `cli.run`, its stdout
  checked byte for byte against perfbench/golden.json;
- `elementary_abelian(2, 12)`, timed inside the process after numpy and
  `group_core` are imported, together with the process's peak RSS.

Process times are wall times around `subprocess.run`.  Prints one JSON
object: per source tree (under its label, else its path), the median and
quartiles over the rounds of every measurement.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

CERT = ('{"class": [[6, 5]], "a_list": [2, 3], "x_list": [3, 1], "v0": "5", '
        '"adjusted_a_list": [2, 3], "partition": [["2", "3"], []], '
        '"t_parities": [0, 0], "verified": true}')

# the calls of perfbench's cli-cold workload, in its order
CLI_CALLS = [
    ["group", "cohomology", "--group", "elab:2:2", "--p", "2", "--degree", "2"],
    ["group", "massey", "--group", "cyclic:3", "--p", "3", "--chars", "[[1],[1],[1]]"],
    ["group", "scan-vanishing", "--group", "elab:2:3", "--p", "2", "--jobs", "1"],
    ["group", "cup-res", "--group", "elab:2:2", "--p", "2", "--chars", "[[1,0],[0,1]]"],
    ["group", "u-hom", "--group", "cyclic:4", "--p", "2", "--chars", "[[1],[1]]", "--n", "2"],
    ["group", "u-hom", "--group", "cyclic:3", "--p", "3", "--chars", "[[1],[1],[1]]",
     "--n", "3"],
    ["q", "hilbert", "--a", "2", "--b", "3", "--place", "2"],
    ["q", "invariants", "--class", "[[2,3]]"],
    ["q", "split", "--class", "[[2,3]]", "--a", "[2]"],
    ["q", "decompose", "--class", "[[6,5]]", "--a", "[2,3]"],
    ["q", "verify", "--cert", CERT],
]

RUN_CLI = "import sys; from masseybrauer.cli import run; sys.exit(run(sys.argv[1:]))"

ELAB = """
import resource, time
import numpy
from masseybrauer.group_core import elementary_abelian
t0 = time.perf_counter()
elementary_abelian(2, 12)
print(time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def timed(src: str, args: list[str]) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=600)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{src}: {args[:3]} exited {done.returncode}: {done.stderr}")
    return wall, done.stdout


def one_round(src: str, golden: dict) -> dict[str, float]:
    out = {"import masseybrauer.cli": timed(src, ["-c", "import masseybrauer.cli"])[0]}
    for argv in CLI_CALLS:
        key = " ".join(argv)
        wall, stdout = timed(src, ["-c", RUN_CLI, *argv])
        if stdout != golden[key]:
            raise SystemExit(f"{src}: {key}: stdout differs from the golden output")
        out[key] = wall
    out["cli-cold sum of calls"] = sum(out[" ".join(argv)] for argv in CLI_CALLS)
    elab_s, rss_mb = map(float, timed(src, ["-c", ELAB])[1].split())
    out["elementary_abelian(2, 12) s"] = elab_s
    out["elementary_abelian(2, 12) peak RSS MB"] = rss_mb
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=9)
    ap.add_argument("src", nargs="+")
    args = ap.parse_args()
    trees = dict(arg.split("=", 1) if "=" in arg else (arg, arg) for arg in args.src)
    golden = json.loads(GOLDEN.read_text())["cli-cold"]
    runs: dict[str, list[dict]] = {label: [] for label in trees}
    for r in range(args.rounds):
        for label in list(trees)[:: 1 if r % 2 == 0 else -1]:
            runs[label].append(one_round(trees[label], golden))
            print(f"round {r + 1}/{args.rounds} {label} done", file=sys.stderr)
    def summary(values: list[float]) -> dict[str, float]:
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}

    print(json.dumps({
        "rounds": args.rounds,
        "runs": {label: {key: summary([rnd[key] for rnd in rounds]) for key in rounds[0]}
                 for label, rounds in runs.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
