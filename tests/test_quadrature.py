"""Circle quadrature, counter-based sampling and measure invariance."""

import cmath
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerclt import correlations, quadrature
from innerclt.blaschke import BlaschkeProduct, monomial
from innerclt.correlations import _signed_integrand, pair_correlation
from innerclt.errors import BudgetExceeded, NonConvergence
from innerclt.quadrature import (BLOCK, DEFAULT_MAX_GRID, TWO_PI, check_invariance, circle_grid,
                                 counter_uniform, degree_aware_grid, integrate,
                                 next_power_of_two, uniform_angles)
from innerclt.variance import CoefficientSequence, l2_identity_check

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
DEG3_MIXED = BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j, -0.2j), rotation=cmath.exp(0.7j))


class TestIntegrate:
    def test_monomials_are_orthogonal(self):
        for k in (1, 2, 7, -3):
            val = integrate(lambda z, k=k: z ** k).value
            assert abs(val) < 1e-14
        assert abs(integrate(lambda z: z ** 0).value - 1.0) < 1e-15

    def test_lacunary_square_modulus(self):
        # |z^2 + z^4|^2 = 2 + 2 cos(2 theta) integrates to 2
        val = integrate(lambda z: np.abs(z ** 2 + z ** 4) ** 2).value
        assert abs(val - 2.0) < 1e-13

    def test_poisson_kernel_mean(self):
        # int (1 - r^2)/|1 - r z|^2 dm = 1 for r < 1
        r = 0.8
        val = integrate(lambda z: (1 - r ** 2) / np.abs(1 - r * z) ** 2).value
        assert abs(val - 1.0) < 1e-12

    def test_nonconvergence_carries_last_value(self):
        # square-root cusp, so doubling converges only algebraically
        with pytest.raises(NonConvergence) as err:
            integrate(lambda z: np.sqrt(np.abs(np.angle(z))), tol=1e-13)
        assert err.value.value is not None
        # int_0^pi sqrt(t) dt / pi = (2/3) sqrt(pi)
        assert abs(err.value.value - 2.0 * math.sqrt(math.pi) / 3.0) < 1e-3
        assert err.value.est_error > 0

    @pytest.mark.parametrize("c", [1.0, 2.5 - 0.5j])
    def test_constant_integrand(self, c):
        # an integrand may return a scalar: a constant is pointwise
        res = integrate(lambda z: c)
        assert res == integrate(lambda z: np.full(z.shape, c))
        assert res.value == c and res.est_error == 0.0

    def test_block_that_widens_the_dtype_raises(self):
        # blocks are written into one array typed by the first block, so a
        # later complex block must not lose its imaginary part silently
        calls = []

        def g(z):
            calls.append(len(z))
            return np.real(z) if len(calls) == 1 else z
        with pytest.raises(TypeError):
            integrate(g, degree=2 * BLOCK // 8)
        assert calls == [BLOCK, BLOCK]

    @given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_mean_is_constant_term(self, coeffs):
        val = integrate(lambda z: np.polyval(coeffs, z)).value
        assert abs(val - coeffs[-1]) < 1e-9 * max(1.0, max(abs(c) for c in coeffs))

    @pytest.mark.parametrize("tol", [math.nan, -math.inf, 0.0, 1e-15])
    def test_bad_tol_raises_before_g_runs(self, tol):
        g, seen = recording(lambda z: z)
        with pytest.raises(ValueError, match="tol must be >= 1e-14"):
            integrate(g, tol=tol)
        assert seen == []

    # a node where the integrand is not finite, and the grid that first holds
    # it: the start grid (z = 1), the odd half of the first pass, and a later
    # level; elsewhere the cusp, which does not converge before the cap
    NON_FINITE_AT = {"start": (0, 512), "first-pass-odd": (1, 512), "later-level": (1, 4096)}

    @pytest.mark.parametrize("where", sorted(NON_FINITE_AT))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)],
                             ids=["nan", "inf", "-inf", "inf-j"])
    def test_non_finite_integrand_stops_at_its_level(self, where, bad):
        k, level = self.NON_FINITE_AT[where]
        node = circle_grid(level)[k]
        g, seen = recording(lambda z: np.where(z == node, bad, cusp(z)))
        # a mean of (0, inf) divides inf by the count as a complex number
        with pytest.raises(NonConvergence, match="not finite") as err, \
                np.errstate(invalid="ignore"):
            integrate(g, tol=1e-13)
        assert err.value.grid_size == level
        assert sum(len(z) for z in seen) == level
        assert not math.isfinite(err.value.est_error)

    @pytest.mark.parametrize("big", [1e308, complex(1e308, -1e308)])
    def test_overflowing_level_mean_stops_at_the_first_pass(self, big):
        # every value is finite, but the level's sum is not
        g, seen = recording(lambda z: np.full(z.shape, big))
        with pytest.raises(NonConvergence, match="^level mean is not finite") as err, \
                np.errstate(over="ignore", invalid="ignore"):
            integrate(g)
        assert err.value.grid_size == 512
        assert [len(z) for z in seen] == [512]
        assert not math.isfinite(err.value.est_error)


def full_grid_integrate(g, tol=1e-12, degree=0):
    """Reference: the doubling loop re-evaluating g on the whole grid per level."""
    grid = degree_aware_grid(degree)
    prev = None
    delta = math.inf
    while grid <= DEFAULT_MAX_GRID:
        value = complex(np.mean(g(circle_grid(grid))))
        if prev is not None:
            delta = abs(value - prev)
            if delta <= tol:
                return value, grid
        prev = value
        grid *= 2
    return value, None


def unblocked_integrate(g, tol=1e-12, degree=0):
    """Reference: integrate as it was before blocking, with g called once on
    each level's whole node set.  Returns (value, grid_size, est_error),
    also where integrate raises NonConvergence."""
    grid = degree_aware_grid(degree)
    vals = np.asarray(g(circle_grid(grid)))
    value = complex(np.mean(vals))
    delta = math.inf
    while grid < DEFAULT_MAX_GRID:
        grid *= 2
        odd = np.asarray(g(np.exp(1j * TWO_PI * np.arange(1, grid, 2) / grid)))
        both = np.empty(grid, dtype=np.result_type(vals, odd))
        both[0::2] = vals
        both[1::2] = odd
        vals = both
        prev, value = value, complex(np.mean(vals))
        delta = abs(value - prev)
        if delta <= tol:
            break
    return value, grid, delta


def recording(g):
    """g plus the list of arrays it was called with."""
    seen = []

    def wrapped(z):
        seen.append(z)
        return g(z)
    return wrapped, seen


def returning(g):
    """g plus the list of arrays it returned."""
    out = []

    def wrapped(z):
        out.append(g(z))
        return out[-1]
    return wrapped, out


def by_level(seen, first):
    """The arrays of `recording` grouped by integrand pass and concatenated:
    the first pass's `first` points (the start grid doubled), then the odd
    half of each doubled grid."""
    levels, calls, size = [], list(seen), first
    while calls:
        level = []
        while sum(map(len, level)) < size:
            level.append(calls.pop(0))
        assert sum(map(len, level)) == size
        levels.append(np.concatenate(level))
        size = size if len(levels) == 1 else 2 * size
    return levels


def same_bits(x, y):
    return x.dtype == y.dtype and np.array_equal(np.ascontiguousarray(x).view(np.uint64),
                                                 np.ascontiguousarray(y).view(np.uint64))


def cusp(z):
    # square-root cusp, so doubling converges only algebraically
    return np.sqrt(np.abs(np.angle(z)))


def four_factor_integrand(z):
    its = DEG2_HALF.boundary_iterates(z, 7)
    return its[2] * np.conj(its[3]) * its[5] * np.conj(its[7])


NESTED_CASES = {
    "monomial": (lambda z: z ** 7, {}),
    "constant": (lambda z: z ** 0, {}),
    "lacunary": (lambda z: np.abs(z ** 2 + z ** 4) ** 2, {}),
    "poisson": (lambda z: (1 - 0.8 ** 2) / np.abs(1 - 0.8 * z) ** 2, {}),
    # converges at 4096: three passes after the first
    "poisson_slow": (lambda z: (1 - 0.98 ** 2) / np.abs(1 - 0.98 * z) ** 2, {}),
    "polynomial": (lambda z: np.polyval([2 - 1j, 0.5, 3j, -1.0, 0.25], z), {}),
    "four_factor": (four_factor_integrand, {"tol": 1e-11, "degree": 512}),
    "invariance": (lambda z: np.real(DEG3_MIXED.boundary_step(z)) ** 3, {"tol": 1e-13}),
}


def signed_case(f, signs, powers, tol):
    """(g, tol, degree) of int prod (f^{n_j})^{+-} dm as `_signed_integral` sets it up."""
    powers = tuple(n - powers[0] for n in powers)
    return _signed_integrand(f, signs, powers), tol, sum(f.degree ** n for n in powers)


PAIR_MAPS = {"z2": monomial(2), "z3": monomial(3), "deg2-half": DEG2_HALF,
             "deg3-mixed": DEG3_MIXED}

# the shapes that the correlation checks integrate: pairs at gaps 1-6, the
# four-factor shapes I and IV (top index 4 to 10) and alternating products
SHAPE_CASES = {
    **{f"pair_{name}_gap{gap}": signed_case(f, (-1, 1), (0, gap), 1e-12)
       for name, f in PAIR_MAPS.items() for gap in range(1, 7)},
    **{"four_factor_IV_" + "_".join(map(str, idx)):
       signed_case(DEG2_HALF, (1, -1, 1, -1), idx, 1e-11)
       for idx in [(1, 2, 3, 4), (1, 3, 4, 7), (2, 4, 6, 10)]},
    **{"four_factor_I_" + "_".join(map(str, idx)): signed_case(DEG2_HALF, signs, idx, 1e-11)
       for idx, signs in [((1, 2, 3, 4), (1, -1, 1, 1)), ((1, 3, 5, 8), (-1, 1, 1, 1)),
                          ((2, 5, 7, 10), (1, -1, -1, -1))]},
    **{f"alternating_k{k}": signed_case(DEG2_HALF, tuple((-1) ** j for j in range(k)),
                                        tuple(range(1, 2 * k, 2)), 5e-8)
       for k in range(2, 7)},
}


class TestNestedDoubling:
    @pytest.mark.parametrize("case", sorted(NESTED_CASES))
    def test_matches_full_grid_reference(self, case):
        g, kwargs = NESTED_CASES[case]
        ref_value, ref_grid = full_grid_integrate(g, **kwargs)
        res = integrate(g, **kwargs)
        assert res.grid_size == ref_grid
        assert abs(res.value - ref_value) <= 1e-15

    @pytest.mark.parametrize("case", sorted(NESTED_CASES))
    def test_later_levels_evaluate_only_odd_points(self, case):
        g, kwargs = NESTED_CASES[case]
        g, seen = recording(g)
        res = integrate(g, **kwargs)
        # the first pass covers the start grid and its first doubling
        sizes = [len(z) for z in seen]
        start = degree_aware_grid(kwargs.get("degree", 0))
        assert sizes == [2 * start] + [start << k for k in range(1, len(sizes))]
        assert sum(sizes) == res.grid_size
        assert same_bits(seen[0], circle_grid(2 * start))
        for k, z in enumerate(seen[1:], start=2):
            assert same_bits(z, circle_grid(start << k)[1::2])

    def test_odd_points_are_full_grid_points_at_large_sizes(self):
        # g sees BLOCK points per call; from a start grid of 2^16, the blocks
        # of the first pass rebuild circle_grid(2^17) and those of the next
        # the odd half of circle_grid(2^18), bit for bit
        g, seen = recording(cusp)
        with pytest.raises(NonConvergence) as err:
            integrate(g, tol=1e-14, degree=2 ** 13)
        assert all(len(z) <= BLOCK for z in seen)
        levels = by_level(seen, 2 ** 17)
        assert [len(z) for z in levels] == [2 ** 17, 2 ** 17]
        assert same_bits(levels[0], circle_grid(2 ** 17))
        assert same_bits(levels[1], circle_grid(2 ** 18)[1::2])
        assert sum(len(z) for z in seen) == err.value.grid_size == DEFAULT_MAX_GRID

    # integrals whose levels reach 2^16 - 2^18: a deg2-half four-factor of
    # spread 9, a z^3 pair of spread 8, and the cusp and a pair of spread 8
    # on the rotated degree-3 map, which do not converge by the cap
    BLOCKED_CASES = {
        "four_factor": (_signed_integrand(DEG2_HALF, (1, -1, 1, -1), (0, 1, 8, 9)),
                        1e-11, 1 + 2 + 2 ** 8 + 2 ** 9),
        "z3_pair": (_signed_integrand(monomial(3), (-1, 1), (0, 8)), 1e-12, 1 + 3 ** 8),
        "cusp": (cusp, 1e-13, 0),
        "deg3_mixed_pair": signed_case(DEG3_MIXED, (-1, 1), (0, 8), 1e-12),
    }

    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES) + sorted(SHAPE_CASES))
    def test_blocked_levels_match_unblocked_bit_for_bit(self, case):
        g, tol, degree = {**self.BLOCKED_CASES, **SHAPE_CASES}[case]
        ref_g, ref_out = returning(g)
        value, grid, delta = unblocked_integrate(ref_g, tol, degree)
        assert grid >= 2 ** 16 or case in SHAPE_CASES
        g, out = returning(g)
        try:
            res = integrate(g, tol, degree)
        except NonConvergence as err:
            res = err
        assert isinstance(res, NonConvergence) == (case in ("cusp", "deg3_mixed_pair"))
        # every point's value, not only the means, which can hide a changed
        # bit; the first pass gives the start grid's values at even and the
        # first doubling's at odd positions
        first = np.empty(2 * len(ref_out[0]), dtype=np.result_type(*ref_out[:2]))
        first[0::2], first[1::2] = ref_out[0], ref_out[1]
        assert same_bits(np.concatenate(out), np.concatenate([first] + ref_out[2:]))
        assert res.value.real.hex() == value.real.hex()
        assert res.value.imag.hex() == value.imag.hex()
        assert res.est_error.hex() == delta.hex()
        assert res.grid_size == grid

    @staticmethod
    def cold_table(monkeypatch):
        """An empty node table and grid memo, as in a fresh process, and the
        sizes of the node sets that _nodes then computes."""
        computed = []
        nodes = quadrature._nodes

        def spy(k, n):
            computed.append(len(k))
            return nodes(k, n)
        monkeypatch.setattr(quadrature, "_NEW_NODES", {})
        monkeypatch.setattr(quadrature, "_GRIDS", {})
        monkeypatch.setattr(quadrature, "_nodes", spy)
        return computed

    def test_table_grown_to_2_17_serves_a_later_small_integral(self, monkeypatch):
        computed = self.cold_table(monkeypatch)
        # a constant converges at the first doubling: one pass over 2^17
        g, seen = recording(lambda z: z ** 0)
        assert integrate(g, degree=2 ** 13).grid_size == 2 ** 17
        assert [len(z) for z in seen] == [BLOCK] * (2 ** 17 // BLOCK)
        assert sum(computed) == 2 ** 17
        g, seen = recording(NESTED_CASES["poisson_slow"][0])
        res = integrate(g)
        assert sum(computed) == 2 ** 17  # every node came from the table
        # each pass is one block here, and each block its slice of the grid:
        # circle_grid(2^9), then the odd half of each doubled grid
        assert 2 ** 10 < res.grid_size <= BLOCK
        assert same_bits(seen[0], circle_grid(2 ** 9))
        for k, z in enumerate(seen[1:], start=2):
            assert same_bits(z, circle_grid(2 ** (8 + k))[1::2])
        assert sum(len(z) for z in seen) == res.grid_size

    def test_each_node_is_computed_once_per_process(self, monkeypatch):
        computed = self.cold_table(monkeypatch)
        for g, kwargs in (NESTED_CASES["poisson"], NESTED_CASES["four_factor"],
                          NESTED_CASES["poisson"], NESTED_CASES["constant"]):
            integrate(g, **kwargs)
        finest = max(quadrature._NEW_NODES)
        assert finest >= 2 ** 12 and sum(computed) == finest
        for n in quadrature._NEW_NODES:
            assert same_bits(quadrature._grid(n), circle_grid(n))

    def test_integrand_writing_into_its_points_changes_no_later_integral(self):
        # first passes over 512 and BLOCK nodes (one block each, from a kept
        # grid) and over 2 * BLOCK nodes (two blocks); an integrand that
        # returns a constant, and one that returns the points it wrote
        g = NESTED_CASES["four_factor"][0]
        for degree, returns in itertools.product((0, 512, 1024), ("constant", "points")):
            before = integrate(g, tol=1e-11, degree=degree)

            def vandal(z):
                z *= 2.0
                z[::3] = np.nan
                return 1.0 if returns == "constant" else z
            if returns == "constant":
                assert integrate(vandal, tol=1e-11, degree=degree).value == 1.0
            else:  # a NaN among its values stops it
                with pytest.raises(NonConvergence), np.errstate(invalid="ignore"):
                    integrate(vandal, tol=1e-11, degree=degree)
            after = integrate(g, tol=1e-11, degree=degree)
            assert after.value.real.hex() == before.value.real.hex()
            assert after.value.imag.hex() == before.value.imag.hex()
            assert after == before
            assert (2 * degree_aware_grid(degree) in quadrature._GRIDS) == (degree < 1024)
            for n in {**quadrature._NEW_NODES, **quadrature._GRIDS}:
                assert same_bits(quadrature._grid(n), circle_grid(n))

    def test_kept_grids_are_read_only_and_have_circle_grid_bits(self, monkeypatch):
        computed = self.cold_table(monkeypatch)
        # first passes over 2^9 .. 2^14 nodes; only those of at most BLOCK are kept
        for degree in (0, 64, 128, 256, 512, 1024):
            integrate(lambda z: z ** 0, degree=degree)
        assert sorted(quadrature._GRIDS) == [2 ** k for k in range(9, 14)]
        assert 2 * BLOCK == 2 ** 14 and sum(computed) == 2 ** 14
        for n, grid in quadrature._GRIDS.items():
            with pytest.raises(ValueError):
                grid.flags.writeable = True
            assert quadrature._grid(n) is grid
            assert same_bits(grid, circle_grid(n))
        assert quadrature._grid(2 * BLOCK) is not quadrature._grid(2 * BLOCK)
        assert same_bits(quadrature._grid(2 * BLOCK), circle_grid(2 * BLOCK))

    # what g returns on a one-block first pass, and the dtype of its level:
    # a float64 or complex128 array of the block's shape is the level itself,
    # anything else is copied into a level of its own dtype
    ONE_BLOCK_RETURNS = {
        "float": (lambda z: 2.5, np.float64),
        "complex": (lambda z: 1.0 - 0.5j, np.complex128),
        "int64": (lambda z: np.full(z.shape, 3), np.int64),
        "float32": (lambda z: np.full(z.shape, 0.1, dtype=np.float32), np.float32),
        "complex64": (lambda z: (z ** 2).astype(np.complex64), np.complex64),
        "float64": (lambda z: np.real(z) ** 2 + np.real(z), np.float64),
        "strided-float64": (np.real, np.float64),
        "complex128": (lambda z: z ** 3 + 0.25, np.complex128),
    }

    @pytest.mark.parametrize("case", sorted(ONE_BLOCK_RETURNS))
    def test_one_block_first_pass_keeps_value_and_dtype(self, case):
        g, dtype = self.ONE_BLOCK_RETURNS[case]
        g, out = returning(g)
        level = quadrature._level(g, quadrature._grid(512))
        assert level.dtype == dtype and level.shape == (512,)
        assert (level is out[0]) == (case in ("float64", "strided-float64", "complex128"))
        value, grid, delta = unblocked_integrate(g)
        res = integrate(g)
        assert res.value.real.hex() == value.real.hex()
        assert res.value.imag.hex() == value.imag.hex()
        assert res.est_error.hex() == delta.hex()
        assert res.grid_size == grid

    # pair_correlation(f, k, k + gap) integrates the pair shifted to (0, gap)
    @pytest.mark.parametrize("name", sorted(PAIR_MAPS))
    @pytest.mark.parametrize("gap", range(1, 7))
    def test_pair_correlation_has_unblocked_bits(self, monkeypatch, name, gap):
        f = PAIR_MAPS[name]
        results = []

        def spy(*args, **kwargs):
            results.append(integrate(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(correlations, "integrate", spy)
        value, grid, delta = unblocked_integrate(*signed_case(f, (-1, 1), (0, gap), 1e-12))
        c1 = f._series(2)[1]
        for k in (1, 3):
            pc = pair_correlation(f, k, k + gap)
            res = results.pop()
            assert pc.value == res.value and results == []
            assert res.value.real.hex() == value.real.hex()
            assert res.value.imag.hex() == value.imag.hex()
            assert res.est_error.hex() == delta.hex()
            assert res.grid_size == grid
            target = c1 ** gap
            assert pc.target.real.hex() == target.real.hex()
            assert pc.target.imag.hex() == target.imag.hex()

    def test_nothing_is_built_at_import(self):
        code = ("import innerclt, innerclt.cli; from innerclt import quadrature; "
                "assert quadrature._NEW_NODES == {}, sorted(quadrature._NEW_NODES); "
                "assert quadrature._GRIDS == {}, sorted(quadrature._GRIDS)")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})

    def test_nonconvergence_reports_max_grid(self):
        g, seen = recording(cusp)
        with pytest.raises(NonConvergence) as err:
            integrate(g, tol=1e-13)
        assert err.value.grid_size == DEFAULT_MAX_GRID
        assert sum(len(z) for z in seen) == DEFAULT_MAX_GRID
        ref_value, ref_grid = full_grid_integrate(cusp, tol=1e-13)
        assert ref_grid is None
        assert abs(err.value.value - ref_value) <= 1e-15

    # np.mean sums integers in float64, where 2^62 does not overflow, and
    # divides a complex64 sum in complex128
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64, np.bool_,
                                       np.complex64])
    def test_level_mean_has_np_mean_bits(self, dtype):
        rng = np.random.default_rng(29)
        # levels are powers of two; other counts show a division by the count
        # done another way, such as a product with its reciprocal
        sizes = [1, 512, BLOCK, 2 ** 17, DEFAULT_MAX_GRID] + [3, 7, 1000, BLOCK + 1] * 10
        for n in sizes:
            vals = rng.standard_normal(n) * np.exp(rng.uniform(-20, 20, n))
            if np.dtype(dtype).kind == "c":
                vals = vals + 1j * rng.standard_normal(n) * np.exp(rng.uniform(-20, 20, n))
            elif dtype is np.int64:
                vals = rng.integers(2 ** 62, size=n)
            elif dtype is np.bool_:
                vals = vals > 0
            vals = vals.astype(dtype)
            # the whole level, and its even entries as the first pass reads them
            for level, contiguous in ((vals, vals), (vals[0::2], vals[0::2].copy())):
                want = complex(np.mean(contiguous))
                got = quadrature._mean(level)
                assert got.real.hex() == want.real.hex(), n
                assert got.imag.hex() == want.imag.hex(), n

    def test_node_table_cannot_be_made_writeable(self):
        integrate(NESTED_CASES["poisson_slow"][0])
        assert quadrature._NEW_NODES
        for nodes in quadrature._NEW_NODES.values():
            with pytest.raises(ValueError):
                nodes.flags.writeable = True
        for n in quadrature._NEW_NODES:
            assert same_bits(quadrature._grid(n), circle_grid(n))


class TestGridHelpers:
    def test_circle_grid_on_circle(self):
        z = circle_grid(16)
        assert len(z) == 16
        assert np.allclose(np.abs(z), 1.0)
        assert abs(z[0] - 1.0) < 1e-15

    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(5) == 8
        assert next_power_of_two(64) == 64

    def test_degree_aware_grid(self):
        assert degree_aware_grid(1) == 256
        assert degree_aware_grid(100) == 1024
        assert degree_aware_grid(10 ** 9) == 2 ** 18


class TestGridBudget:
    """Integrals of iterates start on the degree-aware grid of their harmonic
    degree; a start grid at the cap raises BudgetExceeded before integrating."""

    def test_integrate_start_at_cap_raises_before_g_runs(self):
        # a start grid of 2^17: the first pass covers the whole 2^18 grid
        g, seen = recording(lambda z: z)
        assert integrate(g, degree=2 ** 14).grid_size == DEFAULT_MAX_GRID
        assert all(len(z) <= BLOCK for z in seen)
        levels = by_level(seen, DEFAULT_MAX_GRID)
        assert [len(z) for z in levels] == [DEFAULT_MAX_GRID]
        assert same_bits(levels[0], circle_grid(DEFAULT_MAX_GRID))
        g, seen = recording(lambda z: z)
        with pytest.raises(BudgetExceeded):
            integrate(g, degree=2 ** 14 + 1)
        assert seen == []

    @pytest.mark.parametrize("call", [
        lambda: pair_correlation(DEG2_HALF, 1, 15),
        lambda: l2_identity_check(DEG2_HALF, CoefficientSequence.ones(14), 14),
    ], ids=["pair(1,15)", "l2(N=14)"])
    def test_start_at_cap_raises_before_integrating(self, stepped, call):
        with pytest.raises(BudgetExceeded):
            call()
        assert stepped == []

    def test_start_below_cap_runs_two_levels(self, stepped):
        # spread 13: both levels step 2^17 points (the start grid, then the
        # odd half of 2^18) through 13 iterates, BLOCK points per step
        with pytest.raises(NonConvergence) as err:
            pair_correlation(DEG2_HALF, 1, 14)
        assert stepped == [BLOCK] * (26 * 2 ** 17 // BLOCK)
        assert err.value.grid_size == DEFAULT_MAX_GRID
        assert math.isfinite(err.value.est_error)


class TestCounterUniform:
    def test_deterministic(self):
        assert np.array_equal(counter_uniform(42, 1000), counter_uniform(42, 1000))

    def test_partition_invariance(self):
        whole = counter_uniform(7, 1000)
        parts = np.concatenate([counter_uniform(7, 400),
                                counter_uniform(7, 600, start=400)])
        assert np.array_equal(whole, parts)

    def test_seed_sensitivity(self):
        assert not np.array_equal(counter_uniform(1, 100), counter_uniform(2, 100))

    def test_range_and_moments(self):
        u = counter_uniform(123, 200_000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(np.mean(u) - 0.5) < 0.005
        assert abs(np.var(u) - 1.0 / 12.0) < 0.002

    def test_uniform_angles_range(self):
        t = uniform_angles(5, 1000)
        assert np.all((t >= 0.0) & (t < 2 * math.pi))


class TestInvariance:
    @pytest.mark.parametrize("f", [monomial(2), monomial(3),
                                   BlaschkeProduct(zeros=(0.0, 0.5))])
    def test_lebesgue_measure_is_invariant(self, f):
        for p in range(1, 4):
            check = check_invariance(f, lambda z, p=p: z ** p + np.real(z) ** (p + 1))
            assert check.passed, check.residual

    def test_constant_observable(self):
        check = check_invariance(DEG2_HALF, lambda z: 1.0)
        assert check.passed and check.residual == 0.0

    def test_residual_is_small_not_just_flagged(self):
        f = BlaschkeProduct(zeros=(0.0, 0.3 + 0.2j))
        check = check_invariance(f, lambda z: np.abs(z + z ** 2) ** 2)
        assert check.residual < 1e-11
