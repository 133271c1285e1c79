import numpy as np
import pytest
from scipy.linalg.lapack import dpttrs

from conftest import checked_solve
from fkpplab.errors import ConfigurationError, DomainError, NumericalError
from fkpplab.grids import Field, Grid, TridiagonalFactor, interpolate


def test_interpolate_reproduces_linear_function():
    g = Grid("line", ((0.0, 1.0),), 0.01)
    f = Field(g, g.axis(0).copy())
    assert interpolate(f, 0.37) == pytest.approx(0.37, abs=1e-14)


def test_interpolate_nodal_exactness():
    g = Grid("line", ((-1.0, 1.0),), 0.05)
    rng = np.random.default_rng(3)
    f = Field(g, rng.uniform(size=g.shape))
    for i in (0, 7, 19, g.shape[0] - 1):
        assert interpolate(f, g.axis(0)[i]) == pytest.approx(f.values[i], abs=1e-14)


def test_interpolate_quadratic_error_bound():
    # linear interpolation of x^2: error <= dx^2/8 * max|f''| = 2.5e-5
    g = Grid("line", ((0.0, 1.0),), 0.01)
    f = Field(g, g.axis(0) ** 2)
    assert interpolate(f, 0.505) == pytest.approx(0.255025, abs=2.5e-5)


def test_interpolate_affine_exact_all_modes():
    for grid, fn, pt in (
        (Grid("line", ((-1.0, 2.0),), 0.1), lambda x: 2 * x - 0.3, 0.77),
        (Grid("radial", ((0.0, 2.0),), 0.1, dim=2), lambda r: 0.5 * r + 1, 1.234),
        (Grid("plane", ((-1.0, 1.0), (-1.0, 1.0)), 0.1),
         lambda p: 0.3 * p[..., 0] - 0.7 * p[..., 1] + 0.1, (0.33, -0.52)),
    ):
        f = Field(grid, fn(grid.points()))
        expected = fn(np.asarray(pt)) if grid.mode == "plane" else fn(pt)
        assert interpolate(f, pt) == pytest.approx(float(expected), abs=1e-12)


def _scalar_interpolate(fld, x):
    """The reference: interpolation one point at a time in Python floats,
    the bilinear terms summed in the order the reports were written with."""
    g, v, x = fld.grid, fld.values, np.atleast_1d(x)
    idx, wts = [], []
    for ax, (lo, hi) in enumerate(g.extents):
        t = np.clip((float(x[ax]) - lo) / g.dx, 0.0, g.shape[ax] - 1)
        i = min(int(t), g.shape[ax] - 2)
        idx.append(i)
        wts.append(t - i)
    if g.mode != "plane":
        (i,), (s,) = idx, wts
        return (1 - s) * v[i] + s * v[i + 1]
    (i, j), (s, t) = idx, wts
    return ((1 - s) * (1 - t) * v[i, j] + s * (1 - t) * v[i + 1, j]
            + (1 - s) * t * v[i, j + 1] + s * t * v[i + 1, j + 1])


@pytest.mark.parametrize("grid", (
    Grid("line", ((-1.0, 2.0),), 0.1),
    Grid("radial", ((0.0, 2.0),), 0.1, dim=3),
    Grid("plane", ((-0.7, 1.3), (-0.45, 0.25)), 0.05),
))
def test_interpolate_matches_the_scalar_formula_bitwise(grid):
    rng = np.random.default_rng(11)
    f = Field(grid, rng.random(grid.shape))
    lo, hi = np.array(grid.extents).T
    points = [lo, hi, lo + grid.dx * 3] + list(rng.uniform(lo, hi, (200, lo.size)))
    for x in points:
        x = x if grid.mode == "plane" else float(x[0])
        assert interpolate(f, x) == _scalar_interpolate(f, x)


def test_interpolate_out_of_extents():
    g = Grid("line", ((0.0, 1.0),), 0.1)
    f = Field(g, np.zeros(g.shape))
    with pytest.raises(DomainError):
        interpolate(f, 1.2)


def test_tridiagonal_identity():
    rhs = np.array([3.0, -1.0, 2.0, 0.5])
    y = checked_solve(TridiagonalFactor(np.zeros(3), np.ones(4), np.zeros(3)), rhs)
    assert np.allclose(y, rhs, atol=1e-14)


def test_tridiagonal_hand_eliminated_3x3():
    # [2 -1 0; -1 2 -1; 0 -1 2] y = (1, 0, 1)  =>  y = (1, 1, 1)
    y = checked_solve(TridiagonalFactor([-1.0, -1.0], [2.0, 2.0, 2.0],
                          [-1.0, -1.0]), [1.0, 0.0, 1.0])
    assert np.allclose(y, [1.0, 1.0, 1.0], atol=1e-13)


def test_tridiagonal_against_dense_oracle():
    rng = np.random.default_rng(7)
    for n in (5, 40, 300):
        sub = rng.uniform(-1, 1, n - 1)
        sup = rng.uniform(-1, 1, n - 1)
        diag = 2.5 + rng.uniform(0, 1, n)  # dominant by construction
        rhs = rng.uniform(-1, 1, n)
        dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        ref = np.linalg.solve(dense, rhs)
        y = checked_solve(TridiagonalFactor(sub, diag, sup), rhs)
        assert np.max(np.abs(y - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_tridiagonal_roundtrip_large():
    rng = np.random.default_rng(11)
    n = 10_000
    sub = rng.uniform(-1, 1, n - 1)
    sup = rng.uniform(-1, 1, n - 1)
    diag = 2.2 + rng.uniform(0, 1, n)
    rhs = rng.uniform(-1, 1, n)
    y = checked_solve(TridiagonalFactor(sub, diag, sup), rhs)
    back = diag * y
    back[:-1] += sup * y[1:]
    back[1:] += sub * y[:-1]
    assert np.max(np.abs(back - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_tridiagonal_rejects_bad_shapes():
    with pytest.raises(ConfigurationError, match="length n-1"):
        TridiagonalFactor([-1.0], [2.0, 2.0, 2.0], [-1.0, -1.0])
    with pytest.raises(ConfigurationError, match="n >= 2"):
        TridiagonalFactor([], [2.0], [])
    with pytest.raises(ConfigurationError, match="n >= 2"):
        TridiagonalFactor([], [], [])


def test_tridiagonal_rejects_non_dominant():
    with pytest.raises(NumericalError):
        checked_solve(TridiagonalFactor([3.0, 3.0], [1.0, 1.0, 1.0],
                          [3.0, 3.0]), [1.0, 1.0, 1.0])


def test_tridiagonal_block_rhs():
    rng = np.random.default_rng(13)
    n = 50
    diag = 3.0 + rng.uniform(0, 1, n)
    sub = rng.uniform(-1, 1, n - 1)
    sup = rng.uniform(-1, 1, n - 1)
    rhs = rng.uniform(-1, 1, (n, 4))
    y = checked_solve(TridiagonalFactor(sub, diag, sup), rhs)
    for j in range(4):
        yj = checked_solve(TridiagonalFactor(sub, diag, sup), rhs[:, j])
        assert np.allclose(y[:, j], yj, atol=1e-13)


def test_tridiagonal_factor_follows_the_values():
    rng = np.random.default_rng(17)
    n = 30
    sub, sup = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1)
    diag = 2.5 + rng.uniform(0, 1, n)
    rhs = rng.uniform(-1, 1, n)
    mirror = sub.copy()
    mirror[0] *= 2.0  # the symmetric T with row 0 doubled
    cases = [  # (lower, diag, upper, takes LDL^T)
        (sub, diag, sup, False),  # non-symmetric
        (sub, diag, sub, True),
        (sub, diag, mirror, True),
        (mirror, diag, sub, False),  # column 0 doubled instead
        (sub, -diag, sub, False),  # symmetric negative definite
    ]
    for lower, d, upper, ldl in cases:
        factor = TridiagonalFactor(lower, d, upper)
        assert (factor._trs is dpttrs) == ldl
        dense = np.diag(d) + np.diag(lower, -1) + np.diag(upper, 1)
        ref = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(checked_solve(factor, rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["symmetric", "mirror", "lu"])
def test_tridiagonal_solve_in_place_or_on_a_checked_copy(kind):
    # a Fortran-order block is solved in place, its solution written over
    # it (no copy by the wrapper); a C-order block is solved on a copy and
    # left as it was, row 0 included, which a mirror row's solve halves;
    # check verifies either solution against the right-hand side and
    # raises once the factor no longer matches T
    rng = np.random.default_rng(19)
    n, m = 31, 7
    sub = rng.uniform(-1, 1, n - 1)
    diag = 2.5 + rng.uniform(0, 1, n)
    upper = {"symmetric": sub, "lu": rng.uniform(-1, 1, n - 1)}.get(kind)
    if upper is None:  # the symmetric T with row 0 doubled, halved to solve
        upper = sub.copy()
        upper[0] *= 2.0
    factor = TridiagonalFactor(sub, diag, upper)
    assert (factor._trs is dpttrs) == (kind != "lu")
    dense = np.diag(diag) + np.diag(sub, -1) + np.diag(upper, 1)
    rhs = np.ascontiguousarray(rng.uniform(-1, 1, (n, m)))
    want = np.linalg.solve(dense, rhs)
    resid, work = np.empty((n, m)), np.empty((n, m))

    before = rhs.copy()
    y = factor.solve(rhs)
    assert not np.shares_memory(y, rhs)
    assert rhs.tobytes() == before.tobytes()
    assert np.max(np.abs(y - want)) <= 1e-12 * np.max(np.abs(want))
    solution = y.copy()
    factor.check(rhs, y, resid, work)
    assert rhs.tobytes() == before.tobytes()
    assert y.tobytes() == solution.tobytes()

    in_place = np.asfortranarray(rhs)
    y_in_place = factor.solve(in_place)
    assert np.shares_memory(y_in_place, in_place)
    assert y_in_place.tobytes() == y.tobytes()

    factor._factor[0] = factor._factor[0] * (1.0 + 1e-6)
    with pytest.raises(NumericalError, match="residual"):
        factor.check(rhs, factor.solve(rhs), resid, work)


def test_tridiagonal_rejects_singular_symmetric():
    # weakly dominant rows 0 and 1 decouple from the strict row 2
    with pytest.raises(NumericalError, match="singular"):
        TridiagonalFactor([-1.0, 0.0], [1.0, 1.0, 2.0], [-1.0, 0.0])


@pytest.mark.parametrize("grid", (
    Grid("line", ((-1.0, 2.0),), 0.1),
    Grid("radial", ((0.0, 2.0),), 0.1, dim=3),
    Grid("plane", ((-0.7, 1.3), (-0.45, 0.25)), 0.05),
))
def test_points_of_an_index_are_that_slice_of_all_points(grid):
    bits = lambda a: a.view(np.int64)
    whole = grid.points()
    for index in ((slice(None),) * len(grid.extents),
                  tuple(slice(n // 2, None) for n in grid.shape),
                  tuple(slice(1, n - 2) for n in grid.shape)):
        part = grid.points(index)
        assert np.array_equal(bits(part), bits(whole[index]))


@pytest.mark.parametrize("dim", (1, 4, 5, 8))
def test_radial_grid_takes_dimension_2_or_3(dim):
    # from N = 4 the sub-diagonal 1 - (N-1)/(2i) is negative near the
    # origin, so no step keeps I + a L nonnegative
    with pytest.raises(ConfigurationError, match="N = 2 or 3"):
        Grid("radial", ((0.0, 1.0),), 0.1, dim=dim)


@pytest.mark.parametrize("mode, extents", (
    ("line", ((-1.0, 1.0),)), ("plane", ((-1.0, 1.0), (-1.0, 1.0)))))
def test_only_a_radial_grid_takes_a_dimension(mode, extents):
    # a line or plane Laplacian has N = 1: any other dim would be ignored
    with pytest.raises(ConfigurationError, match=f"{mode} mode reads no dim"):
        Grid(mode, extents, 0.125, dim=3)


def test_field_rejects_non_finite():
    g = Grid("line", ((0.0, 1.0),), 0.1)
    vals = np.zeros(g.shape)
    vals[3] = np.inf
    with pytest.raises(Exception):
        Field(g, vals)
