"""The benchmark's workloads: seeded inputs, one op each, and the checks
that every op's output must pass whatever the seed.

Each workload is a closed loop with one client: the next op starts after
the previous one returned.  The package sees only the generated parameters
or argv; the seed stays in the benchmark.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import io
import json
import random
import xml.etree.ElementTree as ET

SEARCH_R = "0.983"


class CheckFailed(Exception):
    """An op's output broke a property that holds for every input."""


def run_cli(janostab, argv):
    """``janostab.cli.main(argv)`` in-process; returns (exit code, stdout).

    The entry point is looked up on every call so a traced run sees the
    wrapped one.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = janostab.cli.main(argv)
    return code, out.getvalue()


def fmt(x: float) -> str:
    return repr(float(x))


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


_LATTICE = (-1.0, -0.75, -0.5, -0.25, 0.0)


class BaseSweep:
    """The A07 acceptance call: stability against the base member.

    Why: it dominates the acceptance suite, and the ray-log evaluation on
    the polar grid is nearly all of each op.  Every op costs about the same
    (the grid is fixed, n barely matters), so n spans the whole 1..32 range
    for changes whose cost grows with n.
    """

    name = "base_sweep"
    trace_ops = 40
    # The 10 (A, B) pairs of the A07 lattice plus its slope case.
    PAIRS = tuple((a, b) for a in _LATTICE for b in _LATTICE if b < a) + ((-0.8, -1.0),)
    LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)

    def __init__(self, janostab):
        self.j = janostab
        self.grid = janostab.SampleGrid()

    def warmup(self):
        return (-0.5, -1.0, 0.5, 8)

    def schedule(self, rng: random.Random):
        while True:
            a, b = rng.choice(self.PAIRS)
            yield (a, b, rng.choice(self.LAMBDAS), rng.randint(1, 32))

    def run(self, spec):
        a, b, lam, n = spec
        params = self.j.JanowskiParams(a, b, lam)
        return self.j.check_stability_vs_base(params, n, self.grid, tol=1e-6)

    def check(self, spec, report) -> None:
        # The paper's theorem: for A <= 0 every partial sum is stable
        # against the base member, so the worst margin stays within tol.
        _require(report.verdict == "pass", f"verdict {report.verdict}")
        _require(report.worst_margin <= 1e-6, f"margin {report.worst_margin!r} > 1e-6")
        _require(report.n == spec[3], "report is for another n")
        _require(
            report.points_per_circle == self.grid.points_per_circle
            and report.sample_radii == self.grid.radii,
            "report is for another sample grid",
        )

    def corrupt(self, report):
        return dataclasses.replace(report, worst_margin=abs(report.worst_margin) + 1e-3)


def _lattice_size(lo: float, hi: float, step: float) -> int:
    return int(round((hi - lo) / step)) + 1


class LemmaGrid:
    """``verify-lemmas`` over a seeded lattice shape.

    Why: coefficient recurrences and the inequality sweeps are all of the
    op and series is never called.  The draw trades the number of grid
    points against the recurrence length: ops come in decks of the 12
    (step, lambda-step) lattices in seeded order, and the k-th smallest
    lattice draws n-max from the k-th largest of 12 strata of [100, 500].
    Vectorizing over the grid and speeding up each point then show
    different gains, while op costs stay within a few times of each other,
    so a run's percentiles do not hinge on which few giant ops a seed drew.
    """

    name = "lemma_grid"
    trace_ops = 24
    STEPS = (0.1, 0.125, 0.2, 0.25)
    LAMBDA_STEPS = (0.1, 0.2, 0.25)
    N_RANGE = (100, 500)
    M_RANGE = (10, 100)
    ALT_N_MAX = 100

    def __init__(self, janostab):
        self.j = janostab
        combos = [(s, ls) for s in self.STEPS for ls in self.LAMBDA_STEPS]
        self.combos = sorted(combos, key=lambda c: self.grid_points(*c))

    @staticmethod
    def grid_points(step: float, lam_step: float) -> int:
        k = _lattice_size(-1.0, 0.0, step)
        return k * (k - 1) // 2 * _lattice_size(lam_step, 1.0, lam_step)

    def warmup(self):
        return (0.2, 0.2, 300, 50)

    def schedule(self, rng: random.Random):
        lo, hi = self.N_RANGE
        k = len(self.combos)
        while True:
            for i in rng.sample(range(k), k):
                stratum = k - 1 - i
                n_max = lo + min(int((stratum + rng.random()) * (hi - lo + 1) / k), hi - lo)
                yield (*self.combos[i], n_max, rng.randint(*self.M_RANGE))

    def run(self, spec):
        step, lam_step, n_max, m_max = spec
        argv = [
            "verify-lemmas",
            "--step", fmt(step),
            "--lambda-step", fmt(lam_step),
            "--n-max", str(n_max),
            "--m-max", str(m_max),
            "--alt-n-max", str(self.ALT_N_MAX),
        ]
        return run_cli(self.j, argv)

    def expected_counts(self, spec) -> dict:
        step, lam_step, n_max, m_max = spec
        points = self.grid_points(step, lam_step)
        return {
            "coeff_positivity": points * (n_max + 1),
            "coeff_pair_inequality": points * (n_max - 1),
            "weighted_pair_inequality": points * (m_max + 1) * n_max,
            "alternating_identity": _lattice_size(lam_step, 1.0, lam_step) * self.ALT_N_MAX,
        }

    def check(self, spec, output) -> None:
        code, text = output
        _require(code == 0, f"exit code {code}")
        doc = json.loads(text)
        _require(doc["violations_total"] == 0, f"violations_total {doc['violations_total']}")
        for section, count in self.expected_counts(spec).items():
            got = doc[section]["checked"]
            _require(got == count, f"{section} checked {got}, lattice gives {count}")
            _require(not doc[section]["violations"], f"{section} lists violations")

    def corrupt(self, output):
        code, text = output
        return code, text.replace('"checked": ', '"checked": 1', 1)


def _binom_coeffs(c: float, mu: float, order: int) -> list:
    out = [1.0]
    for k in range(1, order + 1):
        out.append(out[-1] * c * (mu - k + 1) / k)
    return out


def oracle_ratio(a: float, b: float, lam: float, n: int, z: complex, steps: int = 2048) -> complex:
    """(1+Bz) * s_n(z)**(1/lam) / (1+Az) with plain ``cmath``.

    s_n comes from the convolution of the two binomial factor series, and
    its logarithm is continued along the ray 0 -> z in ``steps`` principal
    increments, each far smaller than a half turn.
    """
    p = _binom_coeffs(a, lam, n)
    q = _binom_coeffs(b, -lam, n)
    coeffs = [sum(p[j] * q[k - j] for j in range(k + 1)) for k in range(n + 1)]

    def s(w: complex) -> complex:
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * w + c
        return acc

    log, prev = 0j, 1 + 0j
    for i in range(1, steps + 1):
        cur = s(z * i / steps)
        log += cmath.log(cur / prev)
        prev = cur
    return (1 + b * z) / (1 + a * z) * cmath.exp(log / lam)


class Counterexample:
    """The self-stability disproof for one seeded (A, B, lambda).

    Why: ``search`` for the single cell (coarse polar scan plus ~100 scalar
    ray evaluations in refinement), ``self-check`` at the best witness, and
    ``plot`` of the figure.  It is the only workload that runs search,
    figure, CSV serialization and the CLI parser, and it uses series both
    in bulk and point by point.
    """

    name = "counterexample"
    trace_ops = 30
    HEADER = (
        "A,B,lambda,n,margin,z_re,z_im,G_re,G_im,"
        "disk_center_re,disk_center_im,disk_radius,disk_source"
    )

    def __init__(self, janostab):
        self.j = janostab

    def warmup(self):
        known = self.j.KNOWN_COUNTEREXAMPLE.params
        return (known.A, known.B, known.lam)

    def schedule(self, rng: random.Random):
        while True:
            a = -round(rng.uniform(0.05, 0.95), 4)
            b = -round(rng.uniform(-a + 0.01, 1.0), 4)
            yield (a, b, round(rng.uniform(0.1, 1.0), 4))

    def run(self, spec):
        a, b, lam = (fmt(v) for v in spec)
        search = run_cli(self.j, [
            "search", "--A-values", a, "--B-values", b, "--lambda-values", lam,
            "--n-values", "1,2,4", "--r", SEARCH_R,
        ])
        rows = [line.split(",") for line in search[1].splitlines()[1:]]
        best = max(rows, key=lambda row: float(row[4])) if rows else None
        if best is None:
            return search, None, None, None
        n, z0 = best[3], f"{best[5]},{best[6]}"
        params = ["--A", a, "--B", b, "--lambda", lam, "--n", n]
        check = run_cli(self.j, ["self-check", *params, "--z0", z0])
        plot = run_cli(self.j, ["plot", *params, "--r", SEARCH_R, "--z0", z0])
        return search, best, check, plot

    def check(self, spec, output) -> None:
        (code, text), best, check, plot = output
        a, b, lam = spec
        lines = text.splitlines()
        _require(code == 0, f"search exit code {code}")
        _require(lines and lines[0] == self.HEADER, "unexpected search CSV header")
        rows = [line.split(",") for line in lines[1:]]
        _require(sorted(int(r[3]) for r in rows) == [1, 2, 4], "search rows are not n = 1, 2, 4")
        for row in rows:
            margin = float(row[4])
            g = complex(float(row[7]), float(row[8]))
            center = complex(float(row[9]), float(row[10]))
            recomputed = abs(g - center) - float(row[11])
            _require(abs(margin - recomputed) <= 1e-12, f"n={row[3]}: margin {margin!r} != {recomputed!r}")
        _require(best is not None and max(rows, key=lambda r: float(r[4])) == best, "witness row is not the best")
        n_star = int(best[3])
        z_star = complex(float(best[5]), float(best[6]))
        g_star = complex(float(best[7]), float(best[8]))
        oracle = oracle_ratio(a, b, lam, n_star, z_star)
        _require(abs(g_star - oracle) <= 1e-9, f"G at z* is {g_star!r}, oracle gives {oracle!r}")

        code, text = check
        doc = json.loads(text)
        margin = float(best[4])
        _require(code in (0, 1), f"self-check exit code {code}")
        _require((code == 1) == (doc["worst_margin"] > 1e-6), "self-check verdict disagrees with its margin")
        if margin > 1e-6:
            _require(code == 1, "self-check passes a witnessed violation")
            _require(
                doc["worst_margin"] >= margin - 1e-9,
                f"self-check worst margin {doc['worst_margin']!r} < search margin {margin!r}",
            )

        code, svg = plot
        _require(code == 0, f"plot exit code {code}")
        try:
            root = ET.fromstring(svg)
        except ET.ParseError as exc:
            raise CheckFailed(f"SVG does not parse: {exc}") from None
        _require(root.tag.endswith("svg"), f"SVG root is {root.tag}")

    def check_warmup(self, output) -> None:
        _require(float(output[1][4]) > 0.0, "built-in configuration shows no violation")

    def corrupt(self, output):
        search, best, check, plot = output
        shifted = list(best)
        shifted[7] = repr(float(best[7]) + 1e-6)
        text = search[1].replace(",".join(best), ",".join(shifted))
        return (search[0], text), shifted, check, plot


WORKLOADS = {w.name: w for w in (BaseSweep, LemmaGrid, Counterexample)}
