#!/usr/bin/env python3
"""Lint every single-edit mutation of the shipped models.

    python3 scripts/lint_mutants.py build/examples/rtpool_lint > after.txt

Run from the root of a checkout. For each task of each data/*.taskset file
the edits are: drop, reverse or duplicate each edge; add each ordered node
pair as an edge (self-loops included); retype each node to each other type;
set each WCET to -1; set the period to 0; set the deadline to 2T (645 cases
for the four shipped files). Each mutant is linted with every --partition
choice in JSON; the output is one block per case, so two builds compare
with diff. tests/test_lint.cpp (LintModelAgreementTest) makes the same
edits and checks that the model and lint agree on each.
"""
import glob
import os
import subprocess
import sys
import tempfile

TYPES = ("NB", "BF", "BJ", "BC")


def parse(path):
    header, tasks = None, []
    with open(path) as f:
        for line in f:
            words = line.split()
            if not words or words[0].startswith("#"):
                continue
            if words[0] == "taskset":
                header = line.strip()
            elif words[0] == "task":
                tasks.append({"kv": dict(w.split("=", 1) for w in words[1:]),
                              "nodes": [], "edges": []})
            elif words[0] == "node":
                tasks[-1]["nodes"].append(dict(w.split("=", 1) for w in words[2:]))
            elif words[0] == "edge":
                tasks[-1]["edges"].append((int(words[1]), int(words[2])))
    return header, tasks


def write(path, header, tasks):
    with open(path, "w") as f:
        f.write(header + "\n")
        for t in tasks:
            f.write("task " + " ".join(f"{k}={v}" for k, v in t["kv"].items()) + "\n")
            for i, n in enumerate(t["nodes"]):
                f.write(f"node {i} wcet={n['wcet']} type={n['type']}\n")
            for a, b in t["edges"]:
                f.write(f"edge {a} {b}\n")
            f.write("endtask\n")


def edits(task):
    """(label, edit) pairs; each edit mutates a deep copy of `task`."""
    out = []
    for i, (a, b) in enumerate(task["edges"]):
        out.append((f"drop {a}->{b}", lambda t, i=i: t["edges"].pop(i)))
        out.append((f"reverse {a}->{b}",
                    lambda t, i=i: t["edges"].__setitem__(i, t["edges"][i][::-1])))
        out.append((f"duplicate {a}->{b}", lambda t, i=i: t["edges"].append(t["edges"][i])))
    n = len(task["nodes"])
    for u in range(n):
        for v in range(n):
            out.append((f"add {u}->{v}", lambda t, e=(u, v): t["edges"].append(e)))
    for v in range(n):
        for ty in TYPES:
            if ty != task["nodes"][v]["type"]:
                out.append((f"retype {v} {ty}",
                            lambda t, v=v, ty=ty: t["nodes"][v].__setitem__("type", ty)))
    for v in range(n):
        out.append((f"wcet {v} = -1", lambda t, v=v: t["nodes"][v].__setitem__("wcet", "-1")))
    out.append(("period = 0", lambda t: t["kv"].__setitem__("period", "0")))
    out.append(("deadline = 2T", lambda t: t["kv"].__setitem__(
        "deadline", repr(2 * float(t["kv"]["period"])))))
    return out


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: python3 scripts/lint_mutants.py PATH/TO/rtpool_lint")
    lint = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(glob.glob("data/*.taskset")):
            header, tasks = parse(path)
            for ti, task in enumerate(tasks):
                for label, edit in edits(task):
                    mutant = [dict(t, kv=dict(t["kv"]), nodes=[dict(n) for n in t["nodes"]],
                                   edges=list(t["edges"])) for t in tasks]
                    edit(mutant[ti])
                    file = os.path.join(tmp, "mutant.taskset")
                    write(file, header, mutant)
                    print(f"### {os.path.basename(path)} {task['kv']['name']}: {label}")
                    for partition in ("none", "worst-fit", "algorithm1"):
                        run = subprocess.run([lint, "--file", file, "--format=json",
                                              f"--partition={partition}"],
                                             capture_output=True, text=True)
                        output = (run.stdout + run.stderr).strip().replace(file, "MUTANT")
                        print(f"{partition} exit={run.returncode} {output}")
                    sys.stdout.flush()


if __name__ == "__main__":
    main()
