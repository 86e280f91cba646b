"""Compare the janostab CLI of two source trees on a fixed list of cases.

    python tools/golden_cli.py OLD_TREE NEW_TREE

Each tree is a checkout holding ``src/janostab``.  Every case runs as
``python -m janostab ...`` in a fresh temporary directory, once per tree;
``{dir}`` in a case stands for that directory.  The tool prints one line
per case whose stdout, exit code or written files (SVG, CSV) differ, says
whether only numbers differ and by how much at most, and exits 1 if any
case differs.
"""

import argparse
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = [
    # the A11 determinism cases
    "coeffs --A -0.5 --B -1 --lambda 0.5 --n-max 60 --method both",
    "verify-lemmas --step 0.5 --lambda-step 0.5 --n-max 40 --m-max 8 --alt-n-max 30",
    "check-stability --A -0.5 --B -1 --lambda 0.5 --n-max 2 --radii 0.9,0.99 --samples 256",
    "self-check --samples 256 --radii 0.9,0.99",
    "search --n-values 1,2 --coarse-angles 32 --refine-iters 4",
    "plot --angles 256 --boundary-samples 128 --out {dir}/fig.svg --csv-dir {dir}",
    # defaults and wider sweeps
    "self-check",
    "search",
    "self-check --r 0.98 --disk-source closed_form",
    "self-check --A -0.2 --B -0.9 --lambda 1 --n 8 --z0 0.5,0.5",
    "check-stability --A -0.25 --B -1 --lambda 1 --n-max 32",
    "check-stability --A 0 --B -0.75 --lambda 0.1 --n-max 32",
    "check-stability --A 0.3 --B -1 --lambda 0.9 --n-max 16 --allow-outside",
    # a root of s_2 inside the sampled circle, on no sampled ray
    "self-check --A 0.3 --B -1 --lambda 0.9 --n 2 --r 0.99 --z0 ''",
    # an explicit point, and a plotted curve, beyond the roots of that s_2
    "self-check --A 0.3 --B -1 --lambda 0.9 --n 2 --r 0.5 --radii 0.999 --samples 64 "
    "--z0 -0.97,0",
    "plot --A 0.3 --B -1 --lambda 0.9 --n 2 --r 0.99 --z0 0.5,0",
    "search --A-values -0.9,-0.5,-0.1 --B-values -1,-0.95 --lambda-values 0.1,0.5,1 "
    "--n-values 1,3,8,16 --r 0.99",
    "search --A-values -0.3,-0.6 --B-values -0.9,-0.7 --lambda-values 0.4,0.8 "
    "--n-values 1,2,4 --r 0.95",
    "verify-lemmas --step 0.1 --lambda-step 0.1 --n-max 130 --m-max 40",
    "verify-lemmas",
    "verify-lemmas --step 0.25 --lambda-step 0.25 --n-max 120 --m-max 30 --alt-n-max 20 "
    "--allow-outside",
    # lemma tables across the edges of the 32-order blocks (orders 0..n-max + 1),
    # and a widened grid whose violations are all listed
    "verify-lemmas --step 0.25 --lambda-step 0.2 --n-max 31 --m-max 9 --alt-n-max 31",
    "verify-lemmas --step 0.2 --lambda-step 0.25 --n-max 32 --m-max 7",
    "verify-lemmas --step 0.125 --lambda-step 0.1 --n-max 33 --m-max 33 --alt-n-max 33",
    "verify-lemmas --step 0.2 --lambda-step 0.2 --n-max 33 --m-max 12 --alt-n-max 20 "
    "--allow-outside",
    # a widened grid streamed in two chunks of pairs (220 points: 64 orders a
    # chunk), with violations listed from both; and lattices whose minima
    # are all 0, the pass meeting some as -0 at --n-max 3: each reads 0
    "verify-lemmas --step 0.2 --lambda-step 0.25 --n-max 70 --m-max 6 --alt-n-max 10 "
    "--allow-outside",
    "verify-lemmas --step 1 --lambda-step 1 --n-max 40 --m-max 3 --alt-n-max 3 --allow-outside",
    "verify-lemmas --step 1 --lambda-step 1 --n-max 3 --m-max 0 --alt-n-max 3 --allow-outside",
    # s_n = 1 + z + ... + z^n: every root on |z| = 1, just outside the sampled
    # circle, where |s_n| is small and every sample ties (|ratio - 1| = |z|^(n+1))
    "check-stability --A 0 --B -1 --lambda 1 --n-max 32",
    # the same up to degree 256, on circles near those roots: the branch test's
    # arcs are halved most there
    "check-stability --A 0 --B -1 --lambda 1 --n-max 256 --radii 0.999,0.9999",
    # high degree, where the branch test decides on more arcs
    "check-stability --A -0.5 --B -1 --lambda 0.5 --n-max 128",
    "self-check --A -0.8 --B -1 --lambda 0.3 --n 256 --r 0.999",
    "search --n-values 64,128,256",
    # one lock-step search over mixed degrees: a repeated n, rows padded
    # across degrees 1..64, two (A, B, lambda) groups
    "search --A-values -0.679,-0.3 --B-values -0.97 --lambda-values 0.3,1 --n-values 1,1,2,8,64 "
    "--r 0.983",
    # the counterexample path: one search cell, the figure at its best
    # witness, and a witness at the pole z = -1/A (a usage error)
    "search --A-values -0.3 --B-values -0.9 --lambda-values 0.7 --n-values 1,2,4 --r 0.983",
    # refine rounds three to an evaluator call, 7 rounds ending in a tree of
    # one; and many rows, with more probes in a call's trees than in a scan row
    "search --n-values 1,2 --coarse-angles 64 --refine-iters 7",
    # the refine limit: 21 trees of three rounds and one of one
    "search --n-values 1,2 --coarse-angles 16 --refine-iters 64",
    "search --n-values 1,2,3 --coarse-angles 64 --refine-iters 7",
    "search --n-values 1,2,3,4,5,6,7,8,9,10",
    "search --n-values " + ",".join(map(str, range(1, 41))),
    "search --A-values -0.3 --B-values -0.9 --lambda-values 0.7 --n-values 1,2,3,4,5,6,7,8,9,10,11,12 "
    "--coarse-angles 16 --refine-iters 20",
    "plot --A -0.3 --B -0.9 --lambda 0.7 --n 1 --r 0.983 "
    "--z0 0.51567165807293502,0.83688215482247552 --csv-dir {dir}",
    # a long figure, each of its paths formatted from digit words in several slices
    "plot --angles 65536 --boundary-samples 65536 --out {dir}/fig.svg",
    "plot --z0 1.4727540500736376,0",
    "self-check --z0 1.4727540500736376,0",
    # witnesses outside the open unit disk, and one on its boundary (usage errors)
    "self-check --z0 1.2,0",
    "self-check --z0 0,1",
    "plot --z0 1.2,0 --out {dir}/fig.svg",
    # a non-finite tolerance is a usage error, not a clean run
    "verify-lemmas --step 0.25 --lambda-step 0.25 --n-max 120 --m-max 30 --alt-n-max 20 "
    "--allow-outside --tol nan",
    # lattices whose step does not divide the range, or spans it
    "verify-lemmas --step 0.5 --lambda-step 1 --n-max 20 --m-max 4 --alt-n-max 10",
    "verify-lemmas --step 0.35 --lambda-step 0.35 --n-max 20 --m-max 4 --alt-n-max 10",
    # each side of the crossing test's triangle bound a_0 > sum |a_k| r**k:
    # it settles every circle of the first, and few of the second, without arcs
    "check-stability --A 0 --B -0.25 --lambda 1 --n-max 64",
    "check-stability --A -0.5 --B -1 --lambda 0.9 --n-max 64",
]


NUMBER = re.compile(rb"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number_diff(old: bytes, new: bytes):
    """Largest absolute difference between the numbers of two texts that
    differ only in their numbers, else None."""
    if NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return None
    pairs = zip(NUMBER.findall(old), NUMBER.findall(new))
    return max((abs(float(a) - float(b)) for a, b in pairs), default=0.0)


def describe(old, new) -> str:
    """What differs between two runs' (exit code, stdout, files)."""
    if old[0] != new[0] or old[2].keys() != new[2].keys():
        return "exit code or file set differs"
    texts = [(old[1], new[1])] + [(old[2][name], new[2][name]) for name in old[2]]
    diffs = [number_diff(a, b) for a, b in texts]
    if None in diffs:
        return "text differs"
    return f"numbers only, max |diff| {max(diffs):.3g}"


def run(tree: Path, case: str):
    """(exit code, stdout, {file name: bytes}) of one case under one tree."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{dir}", tmp) for a in shlex.split(case)]
        proc = subprocess.run(
            [sys.executable, "-m", "janostab", *argv],
            cwd=tmp, env=env, capture_output=True,
        )
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir()) if p.is_file()}
    return proc.returncode, proc.stdout, files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    differ = 0
    for case in CASES:
        old = run(args.old, case)
        new = run(args.new, case)
        what = [name for name, a, b in zip(("exit", "stdout", "files"), old, new) if a != b]
        if what:
            differ += 1
            detail = describe(old, new)
            print(f"DIFF {', '.join(what)} (exit {old[0]} -> {new[0]}; {detail}): {case}")
    print(f"{len(CASES) - differ} of {len(CASES)} cases identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
