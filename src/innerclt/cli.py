"""Command-line entry points.

Subcommands:
  verify {invariance,clark,correlations,variance}  run a property suite
  clt simulate --config cfg.json --out dir         sample T_N, write outputs
  clark dump --map map.json --alpha theta          print a Clark measure
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import _csvrows
from .blaschke import BlaschkeProduct, CirclePoint, _complex_pair, monomial
from .clark import check_first_moment, check_second_moment, clark_measure, desintegrate
from .clt import Tolerances, _sampling_plan, gauss_report, require_ks_samples, simulate
from .correlations import (BlockSum, CorrelationSpec, block_product_factorization,
                           decay_check, four_factor, higher_correlation,
                           pair_correlation, phi_exponent)
from .errors import RootBracketFailure
from .quadrature import check_invariance
from .variance import (CoefficientSequence, asymptotic_sigma_squared,
                       growth_condition, l2_identity_check, quasiorthogonality,
                       sigma_N_squared, split_plan, toeplitz_sandwich)

# what reading a missing or malformed config or map file raises
INPUT_ERRORS = (OSError, LookupError, TypeError, ValueError)


def _input_error(command: str, exc: Exception) -> str:
    # str(KeyError("N")) is only "'N'"
    return f"{command}: {'missing key ' if isinstance(exc, KeyError) else ''}{exc}"


def _test_maps():
    return {
        "z2": monomial(2),
        "z3": monomial(3),
        "deg2-half": BlaschkeProduct(zeros=(0.0, 0.5)),
    }


def _config_int(value, key: str) -> int:
    # int() would read 12.7 as 12 and true as 1; a string still goes to int()
    if isinstance(value, (bool, float)):
        raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")
    return int(value)


def coefficients_from_config(data: dict, default_length: int) -> CoefficientSequence:
    kind = data.get("kind", "ones")
    length = _config_int(data.get("length", default_length), "length")
    if kind == "ones":
        return CoefficientSequence.ones(length)
    if kind == "explicit":
        values = [_complex_pair(pair, "explicit value") for pair in data["values"]]
        if "length" in data and length != len(values):
            raise ValueError(f"length {length} does not match the {len(values)} explicit values")
        return CoefficientSequence.explicit(values)
    if kind == "random_signs":
        return CoefficientSequence.random_signs(length, _config_int(data["seed"], "seed"))
    if kind == "geometric":
        return CoefficientSequence.geometric(float(data["ratio"]), length)
    raise ValueError(f"unknown coefficient kind {kind!r}")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_samples_csv(path, samples: np.ndarray):
    """samples.csv: the bytes csv.writer gives for the header ("re", "im")
    and one (re, im) row per sample, formatted and written `BLOCK` rows at
    a time by `_csvrows.write_rows`.  A failed write leaves no samples.csv.
    """
    flat = np.ascontiguousarray(samples, dtype=np.complex128).view(np.float64)
    try:
        with open(path, "wb") as fh:
            fh.write(b"re,im\r\n")
            _csvrows.write_rows(flat, fh.write)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


# -- verify suites ----------------------------------------------------------


def _suite_invariance():
    rows = []
    observables = [lambda z, p=p: z ** p + np.conj(z) ** (p + 1) for p in range(1, 6)]
    for name, f in _test_maps().items():
        for i, g in enumerate(observables):
            check = check_invariance(f, g)
            rows.append((f"invariance[{name},G{i}]", check.passed,
                         f"residual={check.residual:.2e}"))
    return rows, None


def _suite_clark():
    rows = []
    for name, f in _test_maps().items():
        for theta in np.linspace(0.3, 5.9, 5):
            alpha = CirclePoint(float(theta))
            # clark_measure raises when the weights miss 1 by more than 1e-10
            try:
                mu = clark_measure(f, alpha)
                r1 = check_first_moment(f, alpha)
                r2 = check_second_moment(f, alpha)
            except RootBracketFailure as exc:
                rows += [(f"clark-{kind}[{name},{theta:.2f}]", False, str(exc))
                         for kind in ("atoms", "moments")]
                continue
            rows.append((f"clark-atoms[{name},{theta:.2f}]",
                         len(mu.atoms) == f.degree, f"atoms={len(mu.atoms)}"))
            rows.append((f"clark-moments[{name},{theta:.2f}]",
                         r1 <= 1e-8 and r2 <= 1e-8,
                         f"res1={r1:.2e} res2={r2:.2e}"))
        _, res = desintegrate(f, lambda z: np.real(z) ** 2, k_alpha=128)
        rows.append((f"clark-desintegration[{name}]", res <= 1e-8,
                     f"residual={res:.2e}"))
    return rows, None


def _suite_correlations():
    f = BlaschkeProduct(zeros=(0.0, 0.5))
    rows = []
    for k in range(1, 4):
        for j in range(k + 1, 6):
            pc = pair_correlation(f, k, j)
            rows.append((f"pair[{k},{j}]", pc.residual <= 1e-9,
                         f"residual={pc.residual:.2e}"))
    fact = block_product_factorization(
        monomial(2), [BlockSum.ones((1, 2)), BlockSum.ones((3, 4))])
    rows.append(("factorization[z2,{1,2},{3,4}]",
                 fact.residual <= 1e-8 and abs(fact.lhs - 4.0) <= 1e-8,
                 f"lhs={fact.lhs:.6f}"))
    ff = four_factor(f, (1, -1, 1, -1), (1, 2, 3, 4))
    rows.append(("four-factor-IV", ff.residual <= 1e-8,
                 f"|value|={abs(ff.value):.6f}"))
    spec = CorrelationSpec((1, -1, 1, -1), (1, 3, 5, 7))
    val = higher_correlation(f, spec)
    rep = phi_exponent(spec)
    rows.append(("higher-alternating", abs(abs(val) - 0.5 ** rep.phi) <= 1e-8,
                 f"phi={rep.phi}"))
    family = [CorrelationSpec(s, n) for s, n in [
        ((1, -1, 1), (1, 3, 6)), ((1, 1, -1), (2, 4, 7)),
        ((1, -1, 1, -1), (1, 3, 5, 8)), ((1, 1, -1, -1), (1, 4, 6, 9))]]
    dc = decay_check(f, family)
    rows.append(("decay-family", dc.passed, f"fitted_C={dc.fitted_c:.3f}"))
    return rows, list(dc.rows)


def _suite_variance():
    rows = []
    ones = CoefficientSequence.ones(2000)
    rows.append(("sigma-example", abs(sigma_N_squared(ones, 0.5, 3) - 5.5) <= 1e-12,
                 "sigma_3^2(1,0.5)"))
    rows.append(("asymptotic", abs(asymptotic_sigma_squared(0.5) - 3.0) <= 1e-12,
                 "Re((1.5)/(0.5))"))
    ok = True
    for seed in range(20):
        a = CoefficientSequence.random_signs(64, seed)
        try:
            toeplitz_sandwich(a, 0.7j, 64)
        except Exception:
            ok = False
    rows.append(("sandwich-sweep", ok, "20 random-sign sequences"))
    f = BlaschkeProduct(zeros=(0.0, 0.5))
    res = l2_identity_check(f, ones, 6)
    rows.append(("l2-identity", res <= 1e-8, f"residual={res:.2e}"))
    growth = growth_condition(ones, 0.5, [100, 400, 1600])
    rows.append(("growth-ones", growth.holds, f"last={growth.ratios[-1]:.4f}"))
    quasi = quasiorthogonality(CoefficientSequence.random_signs(1600, 7),
                               [100, 400, 1600])
    rows.append(("quasi-random-signs", quasi.holds, f"last={quasi.ratios[-1]:.4f}"))
    csv_rows = []
    for n in (100, 400, 1600):
        plan = split_plan(ones, n)
        rows.append((f"split-plan[{n}]",
                     plan.mass_bounds_ok and plan.length_bounds_ok,
                     f"ratio={plan.partial_ratio:.4f}"))
        csv_rows.append((n, ones.s2(n), sigma_N_squared(ones, 0.0, n),
                         plan.partial_ratio,
                         growth_condition(ones, 0.5, [n]).ratios[0],
                         quasiorthogonality(ones, [n]).ratios[0], plan.q_count))
    return rows, csv_rows


# name -> (suite returning (rows, csv_rows), header of its --csv table or None)
SUITES = {
    "invariance": (_suite_invariance, None),
    "clark": (_suite_clark, None),
    "correlations": (_suite_correlations, ("k", "q", "phi", "abs_I", "bound", "pass")),
    "variance": (_suite_variance, ("N", "S2", "sigma2", "ratio", "growth_ratio",
                                   "quasi_ratio", "Q_N")),
}


def run_verify(args) -> int:
    suite, csv_header = SUITES[args.suite]
    rows, csv_rows = suite()
    all_pass = True
    for name, passed, detail in rows:
        all_pass &= bool(passed)
        print(f"{'PASS' if passed else 'FAIL'} {name} ({detail})")
    if args.csv:
        try:
            _write_csv(args.csv, csv_header, csv_rows)
        except OSError as exc:
            raise argparse.ArgumentError(None, f"verify {args.suite} --csv: {exc}") from exc
    return 0 if all_pass else 1


# -- clt simulate -----------------------------------------------------------


def run_simulate(args) -> int:
    out = Path(args.out)
    # Outputs of an earlier run in `out` must not pass for this run's:
    # tail runs write no samples.csv, and a failed run writes no report.json.
    try:
        if out.is_dir():
            for name in ("samples.csv", "report.json"):
                (out / name).unlink(missing_ok=True)
    except OSError as exc:  # such as a directory at an output's name
        raise argparse.ArgumentError(None, _input_error("clt simulate --out", exc)) from exc
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        f = BlaschkeProduct.from_dict(config["map"])
        n = _config_int(config["N"], "N")
        m = _config_int(config["samples"], "samples")
        seed = _config_int(config["seed"], "seed")
        mode = config.get("mode", "main")
        for key in ("coefficients", "tolerances"):  # .get, .items would raise AttributeError
            if not isinstance(config.get(key, {}), dict):
                raise ValueError(f"{key} must be an object, got {json.dumps(config[key])}")
        a = coefficients_from_config(config.get("coefficients", {}),
                                     default_length=n if mode != "tail" else 4 * n)
        tol = Tolerances.from_dict(config.get("tolerances", {}))
        # simulate accepts M >= 1000, but the report needs more
        require_ks_samples(m)
        _sampling_plan(f, a, n, m, mode)  # simulate's checks, before out exists
    except INPUT_ERRORS as exc:
        # `main` turns this into a usage error
        raise argparse.ArgumentError(None, _input_error("clt simulate", exc)) from exc
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file stands at out or above it
        raise argparse.ArgumentError(None, _input_error("clt simulate --out", exc)) from exc
    samples = simulate(f, a, n, m, seed, mode=mode)
    report = gauss_report(samples, tol)
    if mode != "tail":
        _write_samples_csv(out / "samples.csv", samples)
    payload = report.to_dict()
    payload["config"] = config
    with open(out / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"{'PASS' if report.passed else 'FAIL'} clt-{mode} "
          f"(ks_re={report.ks_re:.4f} ks_im={report.ks_im:.4f} "
          f"e_abs2={report.e_abs2:.4f})")
    return 0 if report.passed else 1


def run_dump(args) -> int:
    # a bad map, angle or power is a usage error: CirclePoint and the atom
    # solver's constructor reject the last two before any solve
    try:
        with open(args.map) as fh:
            f = BlaschkeProduct.from_dict(json.load(fh))
        mu = clark_measure(f, CirclePoint(args.alpha), power=args.power)
    except INPUT_ERRORS as exc:
        # `main` turns this into a usage error
        raise argparse.ArgumentError(None, _input_error("clark dump", exc)) from exc
    json.dump(mu.to_dict(), sys.stdout, indent=2)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="innerclt",
        description="Boundary dynamics of Blaschke products: correlation "
                    "identities, Clark measures and CLT sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a property suite")
    verify.add_argument("suite", choices=SUITES)
    verify.add_argument("--csv", help="CSV table path (correlations and variance only)")
    verify.set_defaults(func=run_verify)

    clt = sub.add_parser("clt", help="sampling runs")
    clt_sub = clt.add_subparsers(dest="clt_command", required=True)
    sim = clt_sub.add_parser("simulate", help="sample T_N and write a report")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=run_simulate)

    clark = sub.add_parser("clark", help="Clark measure tools")
    clark_sub = clark.add_subparsers(dest="clark_command", required=True)
    dump = clark_sub.add_parser("dump", help="print atoms and weights as JSON")
    dump.add_argument("--map", required=True)
    dump.add_argument("--alpha", type=float, required=True)
    dump.add_argument("--power", type=int, default=1)
    dump.set_defaults(func=run_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.csv:
        # checked before any suite runs
        if SUITES[args.suite][1] is None:
            parser.error(f"verify {args.suite} writes no table for --csv")
        path = Path(args.csv)
        if path.is_dir():
            parser.error(f"verify {args.suite} --csv: {path} is a directory")
        if not path.parent.is_dir():
            parser.error(f"verify {args.suite} --csv: no directory {path.parent}")
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
