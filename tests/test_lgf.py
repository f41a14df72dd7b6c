"""Tests for the lattice Green's function evaluators."""

import math
import sys

import numpy as np
import pytest

import latticebae.lgf as lgf_module
from latticebae import cli
from latticebae.errors import QuadratureError
from latticebae.lgf import (
    LgfTable,
    R_SWITCH,
    _asymptotic_array,
    canonical_index,
    default_table,
    kernel_table,
    lgf,
    lgf_asymptotic,
    lgf_quadrature,
    lgf_recursion_table,
)
from reference import lgf_grid

# Closed forms: G(1,0) from the stencil identity at the origin, G(1,1)
# analytically, the ring-2 values by substituting those into the stencil
# identity at (1,0), (1,1) and (2,1).
G00 = 0.0
G10 = -0.25
G11 = -1.0 / math.pi
G20 = 2.0 / math.pi - 1.0
G21 = 0.25 - 2.0 / math.pi
G22 = -4.0 / (3.0 * math.pi)
G31 = 4.0 * G21 - G11 - G22 - G20

CLOSED_FORMS = {
    (0, 0): G00,
    (1, 0): G10,
    (1, 1): G11,
    (2, 0): G20,
    (2, 1): G21,
    (2, 2): G22,
    (3, 1): G31,
}


def stencil_residual(fn, m):
    """4 G(m) - sum of neighbour values, minus the delta at the origin."""
    m1, m2 = m
    total = 4.0 * fn((m1, m2))
    for d1, d2 in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        total -= fn((m1 + d1, m2 + d2))
    return total - (1.0 if m == (0, 0) else 0.0)


def test_quadrature_matches_closed_forms():
    for m, ref in CLOSED_FORMS.items():
        assert lgf_quadrature(m, 1e-14) == pytest.approx(ref, abs=1e-12)


def test_quadrature_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        lgf_quadrature((1, 0), 1e-3)
    with pytest.raises(ValueError):
        lgf_quadrature((1, 0), 0.0)


def test_canonicalization_covers_symmetry_group():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m1, m2 = rng.integers(-50, 51, size=2)
        rep = canonical_index((m1, m2))
        assert rep[0] >= rep[1] >= 0
        assert {abs(m1), abs(m2)} == {rep[0], rep[1]}
        assert lgf((m1, m2)) == lgf((m2, m1)) == lgf((-m1, m2)) == lgf((m1, -m2))


def test_delta_identity_through_dispatcher():
    # Sweep all indices with |m| <= 40; the stencil reaches across the
    # quadrature/asymptotic switch so this exercises both regimes.
    for m1 in range(-40, 41):
        for m2 in range(-40, 41):
            if math.hypot(m1, m2) > 40.0:
                continue
            assert abs(stencil_residual(lgf, (m1, m2))) < 1e-10


def test_regime_agreement_band():
    # Quadrature and expansion must agree on a band straddling R_SWITCH.
    worst = 0.0
    for a in range(0, 51):
        for b in range(0, a + 1):
            r = math.hypot(a, b)
            if R_SWITCH - 10.0 <= r <= R_SWITCH + 20.0:
                diff = abs(lgf_quadrature((a, b), 1e-13) - lgf_asymptotic((a, b)))
                worst = max(worst, diff)
    assert worst <= 1e-10


def test_asymptotic_rejects_origin():
    with pytest.raises(ValueError):
        lgf_asymptotic((0, 0))


def test_asymptotic_on_axis_has_unit_cosines():
    r = 1.0e6
    expected = (
        -(math.log(r) + np.euler_gamma + 0.5 * math.log(8.0)) / (2.0 * math.pi)
        + 1.0 / (24.0 * math.pi * r**2)
        + 43.0 / (480.0 * math.pi * r**4)
        + 949.0 / (2016.0 * math.pi * r**6)
    )
    assert lgf_asymptotic((10**6, 0)) == pytest.approx(expected, rel=1e-15)


def test_asymptotic_diagonal_flips_cos4theta():
    # theta = pi/4 makes cos(4 theta) = -1 and cos(8 theta) = +1.
    k = 2000
    r2 = 2.0 * k * k
    expected = (
        -(0.5 * math.log(r2) + np.euler_gamma + 0.5 * math.log(8.0)) / (2.0 * math.pi)
        - 1.0 / (24.0 * math.pi * r2)
        + (25.0 - 18.0) / (480.0 * math.pi * r2**2)
        + (-490.0 + 459.0) / (2016.0 * math.pi * r2**3)
    )
    assert lgf_asymptotic((k, k)) == pytest.approx(expected, rel=1e-15)


def test_recursion_table_seeds_and_ring2():
    table = lgf_recursion_table(3)
    assert table.values[(1, 1)] == pytest.approx(G11, abs=1e-15)
    assert table.values[(2, 0)] == pytest.approx(G20, abs=1e-14)
    assert table.values[(2, 1)] == pytest.approx(G21, abs=1e-14)
    assert table.values[(2, 2)] == pytest.approx(G22, abs=1e-14)
    assert table.values[(3, 1)] == pytest.approx(G31, abs=1e-13)


def test_recursion_table_agrees_with_dispatcher():
    table = lgf_recursion_table(12)
    for (a, b), value in table.values.items():
        assert value == pytest.approx(lgf((a, b)), abs=1e-8)


def test_recursion_table_rejects_out_of_cap():
    with pytest.raises(ValueError):
        lgf_recursion_table(0)
    with pytest.raises(ValueError):
        lgf_recursion_table(31)


def test_recursion_values_satisfy_interior_stencil():
    table = lgf_recursion_table(8)

    def fn(m):
        return table.values[canonical_index(m)]

    for m in [(2, 1), (3, 0), (4, 2), (5, 5), (6, 1), (7, 3)]:
        assert abs(stencil_residual(fn, m)) < 1e-12


def test_dispatcher_memoizes(monkeypatch):
    # One entry per canonical index, in the process's one memo table.
    monkeypatch.setattr(lgf_module, "_DEFAULT_TABLE", LgfTable())
    value = lgf((4, 1))
    assert default_table().values == {(4, 1): value}
    assert lgf((-1, 4)) == value
    assert len(default_table().values) == 1


def test_grid_matches_pointwise_values():
    radius = 34
    grid = lgf_grid(radius, radius)
    assert grid.shape == (2 * radius + 1, 2 * radius + 1)
    rng = np.random.default_rng(11)
    for _ in range(60):
        m1, m2 = rng.integers(-radius, radius + 1, size=2)
        assert grid[m1 + radius, m2 + radius] == pytest.approx(lgf((m1, m2)), abs=1e-13)
    assert not grid.flags.writeable


def test_grid_is_centre_slice_of_larger_grid():
    # Kernel gathers read one table for every window, so a smaller table must
    # agree bit for bit with the centre of a larger one.
    small, large = 37, 64
    assert large > R_SWITCH
    offset = large - small
    centre = lgf_grid(large, large)[offset:offset + 2 * small + 1, offset:offset + 2 * small + 1]
    assert np.array_equal(lgf_grid(small, small), centre)


@pytest.mark.parametrize("rx, ry", [(40, 12), (12, 40), (35, 35), (20, 7)])
def test_window_table_is_centre_slice_of_square(rx, ry):
    # Half-widths below and across R_SWITCH: the window table and the
    # square take every entry from the same octant values.
    radius = max(rx, ry)
    square = lgf_grid(radius, radius)
    centre = square[radius - rx : radius + rx + 1, radius - ry : radius + ry + 1]
    table = lgf_grid(rx, ry)
    assert table.shape == (2 * rx + 1, 2 * ry + 1)
    assert np.array_equal(table, centre)


def test_kernel_table_grows_to_cover_every_window(monkeypatch):
    # One table: it grows to cover both half-widths of every window asked
    # for, and any window it covers gets the same read-only array.
    monkeypatch.setattr(lgf_module, "_KERNEL_TABLE", None)
    wide = kernel_table(40, 12)
    assert wide.shape == (41, 25)
    covering = kernel_table(12, 40)
    assert covering.shape == (41, 81)
    for rx, ry in ((40, 12), (12, 40), (40, 40), (0, 0), (20, 7)):
        assert kernel_table(rx, ry) is covering
    assert not covering.flags.writeable
    with pytest.raises(ValueError):
        covering[0, 0] = 1.0
    with pytest.raises(ValueError):
        kernel_table(-1, 3)


@pytest.mark.parametrize("grown", [False, True])
def test_kernel_table_offset_is_grid_entry_at_both_signs(monkeypatch, grown):
    # Entry |j W + k| of the raveled table, from its entry (0, 0) on, is
    # bitwise G(j, k) and G(-j, -k) of the window table, also when the
    # table was built for a larger window (a longer row W).
    rx, ry = 40, 12
    monkeypatch.setattr(lgf_module, "_KERNEL_TABLE", None)
    if grown:
        kernel_table(rx + 5, ry + 31)
    table = kernel_table(rx, ry)
    width = table.shape[1]
    flat = table.ravel()[width // 2:]
    full = lgf_grid(rx, ry)
    j, k = np.meshgrid(np.arange(-rx, rx + 1), np.arange(-ry, ry + 1), indexing="ij")
    values = flat[np.abs(j * width + k)]
    assert np.array_equal(values, full[j + rx, k + ry])
    assert np.array_equal(values, full[rx - j, ry - k])
    assert np.array_equal(table[: rx + 1, width // 2 - ry : width // 2 + ry + 1], full[rx:])


def test_grid_is_bitwise_the_quadrant_built_table():
    # Reference: evaluate the whole quadrant, keep its lower triangle,
    # complete it by symmetry and mirror it across both axes.
    radius = 64
    a_idx, b_idx = np.meshgrid(np.arange(radius + 1), np.arange(radius + 1), indexing="ij")
    far = np.hypot(a_idx, b_idx) >= R_SWITCH
    quadrant = np.zeros((radius + 1, radius + 1))
    quadrant[far] = _asymptotic_array(a_idx[far], b_idx[far])
    for a in range(radius + 1):
        for b in range(a + 1):
            if not far[a, b]:
                quadrant[a, b] = lgf((a, b))
    lower = np.tril(quadrant)
    quadrant = lower + lower.T - np.diag(np.diag(lower))
    mirror = np.abs(np.arange(-radius, radius + 1))
    assert np.array_equal(lgf_grid(radius, radius), quadrant[np.ix_(mirror, mirror)])


def half_table_reference(rx, ry):
    """The half table built from whole-octant arrays: every octant index
    at once, and the square completed by adding its transposed strict
    upper triangle."""
    big, small = max(rx, ry), min(rx, ry)
    half = np.zeros((rx + 1, 2 * ry + 1))
    quad = half[:, ry:]
    octant = quad if rx >= ry else quad.T
    a_idx, b_idx = np.tril_indices(big + 1, 0, small + 1)
    far = np.hypot(a_idx, b_idx) >= R_SWITCH
    octant[a_idx[far], b_idx[far]] = _asymptotic_array(a_idx[far], b_idx[far])
    for a, b in zip(a_idx[~far].tolist(), b_idx[~far].tolist()):
        octant[a, b] = lgf((a, b))
    square = octant[: small + 1]
    square += np.triu(square.T, 1)
    half[:, :ry] = quad[:, ry:0:-1]
    return half


@pytest.mark.parametrize("rx, ry", [(64, 64), (200, 90), (90, 200)])
def test_half_table_in_row_blocks_is_bitwise_the_whole_octant_build(rx, ry):
    table = lgf_module._half_table(rx, ry)
    reference = half_table_reference(rx, ry)
    assert table.shape == reference.shape
    assert table.tobytes() == reference.tobytes()


def test_half_table_holds_the_table_and_one_block_of_rows(traced_peak):
    # The table of the exterior n=256 window, the whole 257-node grid.
    # In grid arrays of 257^2 doubles the table is 2.0 and one 64-row
    # block of octant temporaries a quarter each; measured 5.07 (margin
    # 18%), and 8.5 with whole-octant index arrays.
    lgf_module._half_table(256, 256)  # the near field's memo entries
    peak, _ = traced_peak(lgf_module._half_table, 256, 256)
    assert peak <= 6 * 8 * 257 * 257


def test_quadrature_error_carries_estimate():
    err = QuadratureError("no convergence", achieved=3e-9)
    assert err.achieved == 3e-9


def test_the_package_attribute_lgf_is_the_module(capsys):
    # The package root imports no ``lgf`` function, so the submodule's
    # attribute on the package is the module itself.
    import latticebae.lgf as m

    assert m is sys.modules["latticebae.lgf"]
    assert cli.main(["lgf", "--m1", "5", "--m2", "3"]) == 0
    assert capsys.readouterr().out == f"{m.lgf((5, 3)):.17g}\n"
