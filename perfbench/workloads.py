"""The four benchmark workloads: seeded op lists and per-op output checks.

A workload is built from its seed into a *round*: a fixed list of ops, each
one call into a public innerclt entry point.  Runs repeat whole rounds, so
every round of a seed does identical work.  The seed chooses input values
(index quadruples, spectral parameters, coefficients, sample seeds) but not
input sizes, so the cost of a round hardly depends on the seed.

Every op has a check that decides, outside the timed region, whether its
output is right.  The checks compare against closed-form targets or against
references computed here, independently of the package; their tolerances
do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from innerclt import cli
from innerclt.blaschke import BlaschkeProduct, CirclePoint, monomial
from innerclt.clark import (check_first_moment, check_second_moment,
                            clark_measure, desintegrate)
from innerclt.clt import sample_T
from innerclt.correlations import (CorrelationSpec, four_factor,
                                   higher_correlation, pair_correlation)
from innerclt.quadrature import check_invariance, uniform_angles
from innerclt.variance import (CoefficientSequence, growth_condition,
                               quasiorthogonality, sigma_N_squared,
                               split_plan, tail_sigma_squared,
                               toeplitz_sandwich)

# Acceptance-suite tolerances (tests/test_acceptance.py).
PAIR_TOL = 1e-9
IDENTITY_TOL = 1e-8
INVARIANCE_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-10
# Relative agreement of a variance formula with the O(N) reference below.
VARIANCE_REL_TOL = 1e-9
# The CSV rows come from the vectorised orbit in clt.simulate, the recomputed
# values from the scalar orbit in clt.sample_T.  The two round differently,
# and an expanding orbit of length N magnifies a one-ulp difference by about
# deg^N (2^18 for the z^2 headline), so the paths agree to a few 1e-12, not
# bitwise.  The measured deviation is reported as `max_row_dev`.
ROW_TOL = 1e-10
CSV_MOMENT_TOL = 1e-12
CHECKED_ROWS = 8

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
TEST_MAPS = {"z2": monomial(2), "z3": monomial(3), "deg2-half": DEG2_HALF}


@dataclass
class Op:
    """One call into the package plus the check of its output.

    `check(output)` returns (ok, info); info holds outputs worth reporting
    and, for CLI ops, the bytes the op wrote.
    """

    name: str
    fn: Callable[[], object]
    check: Callable[[object], tuple]


def build(workload: str, seed: int, tiny: bool, workdir: Path) -> list:
    """The op list of one round of `workload`, generated from `seed`."""
    rng = np.random.default_rng(seed)
    if workload == "quad_corr":
        return _quad_corr(rng, tiny)
    if workload == "clark_atoms":
        return _clark_atoms(rng, tiny)
    if workload == "clt_sample":
        return _clt_sample(rng, tiny, workdir)
    if workload == "variance_scan":
        return _variance_scan(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _within(value: float, tol: float) -> tuple:
    return bool(value <= tol), {"residual": float(value)}


# -- quad_corr --------------------------------------------------------------


def _quad_corr(rng, tiny: bool) -> list:
    ops = []
    # One shape-IV and one shape-I quadruple per top index n4, so the grid
    # sizes (set by n4) and hence the cost are the same for every seed.
    for n4 in range(4, (6 if tiny else 10) + 1):
        low = tuple(int(v) for v in np.sort(rng.choice(np.arange(1, n4), 3, replace=False)))
        idx = low + (n4,)
        ops.append(Op(f"four_factor_IV{idx}",
                      lambda idx=idx: four_factor(DEG2_HALF, (1, -1, 1, -1), idx),
                      lambda r: _within(r.residual, IDENTITY_TOL)))
        low = tuple(int(v) for v in np.sort(rng.choice(np.arange(1, n4), 3, replace=False)))
        idx = low + (n4,)
        e1, e3 = (int(s) for s in rng.choice([-1, 1], 2))
        ops.append(Op(f"four_factor_I{idx}",
                      lambda idx=idx, e1=e1, e3=e3: four_factor(DEG2_HALF, (e1, -e1, e3, e3), idx),
                      lambda r: _within(abs(r.value), IDENTITY_TOL)))
    top = 4 if tiny else 6
    for name, f in TEST_MAPS.items():
        lam = f.taylor_at_zero().c1
        for k in range(1, top):
            for j in range(k + 1, top + 1):
                target = lam ** (j - k)
                ops.append(Op(f"pair[{name},{k},{j}]",
                              lambda f=f, k=k, j=j: pair_correlation(f, k, j),
                              lambda r, t=target: _within(abs(r.value - t), PAIR_TOL)))
    # Alternating signs on indices 1, 3, ..., 2k-1 over deg2-half
    # (f'(0) = 1/2): the integral is 0 for odd k and has modulus 2^-k for
    # even k.  The seed picks the leading sign; the modulus is symmetric.
    for k in range(2, (4 if tiny else 6) + 1):
        s0 = int(rng.choice([-1, 1]))
        spec = CorrelationSpec(tuple(s0 * (-1) ** j for j in range(k)),
                               tuple(range(1, 2 * k, 2)))
        target = 0.0 if k % 2 else 0.5 ** k
        ops.append(Op(f"higher_alternating[k={k}]",
                      lambda spec=spec: higher_correlation(DEG2_HALF, spec),
                      lambda v, t=target: _within(abs(abs(v) - t), IDENTITY_TOL)))
    for name, f in TEST_MAPS.items():
        for degree in (1, 2, 4):
            c = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
            ops.append(Op(f"invariance[{name},deg={degree}]",
                          lambda f=f, c=c: check_invariance(f, _trig_polynomial(c)),
                          lambda r: _within(r.residual, INVARIANCE_TOL)))
    return ops


def _trig_polynomial(c):
    """Real observable G(z) = sum_p c_p z^p + conj(c_p z^p)."""
    def g(z):
        out = np.zeros_like(z)
        for p, cp in enumerate(c, start=1):
            out = out + cp * z ** p + np.conj(cp) * np.conj(z) ** p
        return out
    return g


# -- clark_atoms ------------------------------------------------------------

# Degree-2 maps stop at power 10: the atom cap allows 2^12, but the solver
# raises RootBracketFailure for deg2-half at power 12.  z^3 stops at power 6.
CLARK_POWERS = {"z2": 10, "z3": 6, "deg2-half": 10}


def _clark_atoms(rng, tiny: bool) -> list:
    ops = []
    for name, f in TEST_MAPS.items():
        for power in range(1, (3 if tiny else CLARK_POWERS[name]) + 1):
            alpha = CirclePoint(float(rng.uniform(0.0, 2.0 * math.pi)))
            tag = f"{name},n={power}"
            ops.append(Op(f"clark_measure[{tag}]",
                          lambda f=f, a=alpha, p=power: clark_measure(f, a, p),
                          lambda mu, f=f, a=alpha, p=power: _check_clark(mu, f, a, p)))
            ops.append(Op(f"first_moment[{tag}]",
                          lambda f=f, a=alpha, p=power: check_first_moment(f, a, p),
                          lambda r: _within(r, IDENTITY_TOL)))
            ops.append(Op(f"second_moment[{tag}]",
                          lambda f=f, a=alpha, p=power: check_second_moment(f, a, p),
                          lambda r: _within(r, IDENTITY_TOL)))
    power, k_alpha = (2, 64) if tiny else (6, 64)
    ops.append(Op(f"desintegrate[deg2-half,n={power}]",
                  lambda: desintegrate(DEG2_HALF, lambda z: np.real(z) ** 2 + z ** 2,
                                       k_alpha=k_alpha, power=power),
                  lambda out: _within(out[1], IDENTITY_TOL)))
    return ops


def _check_clark(mu, f, alpha, power) -> tuple:
    """deg^power atoms, weights summing to 1, each atom mapped onto alpha."""
    angles, weights = mu.angles, mu.weights
    landing = np.max(np.abs(f.boundary_orbit(np.exp(1j * angles), power) - alpha.value))
    weight_err = abs(float(np.sum(weights)) - 1.0)
    ok = (len(angles) == f.degree ** power and weight_err <= WEIGHT_SUM_TOL
          and bool(np.all(weights > 0)) and landing <= IDENTITY_TOL)
    return ok, {"atoms": len(angles), "weight_err": weight_err,
                "landing": float(landing)}


# -- clt_sample -------------------------------------------------------------

HEADLINE_TOLERANCES = {"mean": 0.01, "abs2": 0.01, "sq": 0.02, "abs4": 0.05, "ks": 0.02}


def _clt_sample(rng, tiny: bool, workdir: Path) -> list:
    seeds = [int(s) for s in rng.integers(1, 2 ** 31, size=3)]
    ratio = float(rng.uniform(0.5, 0.6))
    z2 = {"zeros": [[0.0, 0.0], [0.0, 0.0]]}
    configs = {
        "z2-headline": {"map": z2, "coefficients": {"kind": "ones"},
                        "N": 18, "samples": 200_000, "seed": seeds[0], "mode": "main"},
        "deg2-headline": {"map": {"zeros": [[0.0, 0.0], [0.5, 0.0]]},
                          "coefficients": {"kind": "ones"},
                          "N": 14, "samples": 100_000, "seed": seeds[1], "mode": "main"},
        # top power 24 <= 30, so the float orbit of z^2 keeps 29 of its bits
        "z2-tail-geometric": {"map": z2,
                              "coefficients": {"kind": "geometric", "ratio": ratio,
                                               "length": 24},
                              "N": 6, "samples": 100_000, "seed": seeds[2], "mode": "tail"},
    }
    ops = []
    for name, config in configs.items():
        config["tolerances"] = HEADLINE_TOLERANCES
        if tiny:
            config["samples"] = 20_000
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config))
        out = workdir / name
        rows = np.sort(rng.choice(config["samples"], CHECKED_ROWS, replace=False))
        ops.append(Op(f"clt_simulate[{name}]",
                      lambda p=path, o=out: _run_cli(p, o),
                      lambda rc, c=config, o=out, r=rows: _check_clt(rc, c, o, r)))
    return ops


def _run_cli(config: Path, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["clt", "simulate", "--config", str(config), "--out", str(out)])


def _check_clt(rc, config: dict, out: Path, rows) -> tuple:
    """Exit code, report.json, CSV length, CSV moments and recomputed rows.

    At the headline sizes the report fails its KS tolerance (the finite-N
    bias of acceptance criterion 9); that is an output, not a failed op.
    """
    report = json.loads((out / "report.json").read_text())
    info = {"pass": report["pass"], "ks_re": report["ks_re"], "ks_im": report["ks_im"],
            "e_abs2": report["e_abs2"],
            "bytes_written": sum(p.stat().st_size for p in out.iterdir())}
    ok = (rc == (0 if report["pass"] else 1)
          and abs(report["e_abs2"] - 0.5) <= config["tolerances"]["abs2"])
    if config["mode"] == "tail":
        return ok, info
    data = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
    x = data[:, 0] + 1j * data[:, 1]
    ok &= len(x) == config["samples"]
    ok &= abs(float(np.mean(np.abs(x) ** 2)) - report["e_abs2"]) <= CSV_MOMENT_TOL
    mean = complex(np.mean(x))
    ok &= abs(mean - complex(*report["mean"])) <= CSV_MOMENT_TOL
    f = BlaschkeProduct.from_dict(config["map"])
    n = config["N"]
    a = cli.coefficients_from_config(config["coefficients"], default_length=n)
    dev = 0.0
    for i in rows:
        if i >= len(x):
            return False, info
        theta = float(uniform_angles(config["seed"], 1, start=int(i))[0])
        dev = max(dev, abs(sample_T(f, a, n, CirclePoint(theta)) - x[i]))
    info["max_row_dev"] = dev
    return bool(ok and dev <= ROW_TOL), info


# -- variance_scan ----------------------------------------------------------


def _variance_scan(rng, tiny: bool) -> list:
    lam = complex(rng.uniform(0.3, 0.7) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    sign_seed = int(rng.integers(0, 2 ** 31))
    ratio = float(rng.uniform(0.5, 0.95))
    ops = []
    for n in ((100, 300) if tiny else (100, 1000, 5000, 20_000)):
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a = CoefficientSequence.explicit(vals)
        n_list = [n // 4, n // 2, n]
        ops += [
            Op(f"ones[{n}]", lambda n=n: CoefficientSequence.ones(n),
               lambda s, n=n: (len(s) == n and bool(np.all(s.array() == 1.0)), {})),
            Op(f"random_signs[{n}]", lambda n=n: CoefficientSequence.random_signs(n, sign_seed),
               lambda s, n=n: (len(s) == n and bool(np.all(np.abs(s.array()) == 1.0))
                               and bool(np.all(s.array().imag == 0.0)), {})),
            Op(f"geometric[{n}]", lambda n=n: CoefficientSequence.geometric(ratio, n),
               lambda s, n=n: (len(s) == n and bool(np.allclose(
                   s.array(), ratio ** np.arange(1, n + 1), rtol=VARIANCE_REL_TOL,
                   atol=1e-300)), {})),
            Op(f"sigma_N_squared[{n}]", lambda a=a, n=n: sigma_N_squared(a, lam, n),
               lambda s, v=vals: _close(s, ref_sigma2(v, lam))),
            Op(f"tail_sigma_squared[{n}]", lambda a=a, n=n: tail_sigma_squared(a, lam, n // 2),
               lambda s, v=vals, n=n: _close(s, ref_sigma2(v[n // 2 - 1:], lam))),
            Op(f"toeplitz_sandwich[{n}]", lambda a=a, n=n: toeplitz_sandwich(a, lam, n),
               lambda r, v=vals: _check_sandwich(r, v, lam)),
            Op(f"split_plan[{n}]", lambda a=a, n=n: split_plan(a, n, lam=lam),
               lambda p, v=vals: _check_split(p, v, lam)),
            Op(f"quasiorthogonality[{n}]", lambda a=a, nl=n_list: quasiorthogonality(a, nl),
               lambda t, v=vals, nl=n_list: _close_all(t.ratios, ref_quasi(v, nl))),
            Op(f"growth_condition[{n}]", lambda a=a, nl=n_list: growth_condition(a, 0.5, nl),
               lambda t, v=vals, nl=n_list: _close_all(t.ratios, ref_growth(v, 0.5, nl))),
        ]
    return ops


def ref_sigma2(values, lam) -> float:
    """sigma^2 of sum a_n f^n in O(N): S^2 + 2 Re sum_m a_m t_m.

    t_m = sum_{n<m} lam^{m-n} conj(a_n) is the output of a one-pole filter
    run over conj(a).
    """
    from scipy.signal import lfilter

    arr = np.asarray(values, dtype=complex)
    t = lfilter([0.0, lam], [1.0, -lam], np.conj(arr))
    return float(np.sum(np.abs(arr) ** 2) + 2.0 * np.sum(arr * t).real)


def ref_quasi(values, n_list) -> list:
    """sup_k |sum_n conj(a_n) a_{n+k}| / S_N^2 by FFT autocorrelation."""
    out = []
    for n in n_list:
        arr = np.asarray(values[:n], dtype=complex)
        size = 1 << (2 * n - 1).bit_length()
        spec = np.fft.fft(arr, size)
        auto = np.fft.ifft(np.conj(spec) * spec)[1:n]
        out.append(float(np.max(np.abs(auto)) / np.sum(np.abs(arr) ** 2)))
    return out


def ref_growth(values, eta, n_list) -> list:
    mass = np.abs(np.asarray(values, dtype=complex)) ** 2
    top, s2 = np.maximum.accumulate(mass), np.cumsum(mass)
    return [float(top[n - 1] / s2[n - 1] ** ((1.0 - eta) / 2.0)) for n in n_list]


def _close(value, ref, tol=VARIANCE_REL_TOL) -> tuple:
    err = abs(value - ref) / max(abs(ref), 1e-300)
    return bool(err <= tol), {"rel_err": float(err)}


def _close_all(values, refs) -> tuple:
    errs = [_close(v, r)[1]["rel_err"] for v, r in zip(values, refs)]
    return len(values) == len(refs) and max(errs) <= VARIANCE_REL_TOL, {"rel_err": max(errs)}


def _check_sandwich(report, values, lam) -> tuple:
    s2 = float(np.sum(np.abs(values) ** 2))
    c = (1.0 + abs(lam)) / (1.0 - abs(lam))
    ok, info = _close(report.sigma2, ref_sigma2(values, lam))
    ok &= _close(report.s2, s2)[0] and _close(report.sandwich_c, c)[0]
    ok &= s2 / c <= report.sigma2 <= c * s2
    return ok, info


def _check_split(plan, values, lam) -> tuple:
    """Blocks and gaps tile a prefix of 1..N in order; the ratio matches."""
    ranges = sorted(plan.xi_blocks + plan.eta_gaps)
    tiled = all(lo < hi for lo, hi in ranges) and ranges[0][0] == 0 and all(
        prev[1] == nxt[0] for prev, nxt in zip(ranges, ranges[1:])) \
        and ranges[-1][1] <= plan.N and len(plan.eta_gaps) == len(plan.xi_blocks) - 1
    covered = sum(ref_sigma2(values[lo:hi], lam) for lo, hi in ranges)
    ok, info = _close(plan.partial_ratio, covered / ref_sigma2(values[:plan.N], lam))
    return ok and tiled, info
