import math

import numpy as np
import pytest

from nlac.grid import Field, GridError, l2_norm, make_grid, sobolev_norm


def test_make_grid_basic():
    g = make_grid(2, 64)
    assert g.num_points == 4096
    assert g.spacing == pytest.approx(math.pi / 32)


def test_frequencies_half_spectrum():
    g = make_grid(1, 4)
    assert g.k_squared().tolist() == [0, 1, 4, 1]


@pytest.mark.parametrize("dim,n", [(0, 8), (4, 8), (2, 6), (2, 3), (2, 0)])
def test_make_grid_rejects(dim, n):
    with pytest.raises(GridError):
        make_grid(dim, n)


def test_constant_transform():
    g = make_grid(2, 16)
    f = Field(g, np.full(g.shape, 3.0))
    c = f.coeffs
    assert c[0, 0] == pytest.approx((2 * math.pi) ** 2 * 3.0)
    c[0, 0] = 0.0
    assert np.max(np.abs(c)) < 1e-10


def test_cosine_coefficients():
    # u = cos(x1) on dim 2: modes (+-1, 0) carry 2*pi^2 each
    g = make_grid(2, 32)
    x, _ = g.coordinates()
    c = Field(g, np.cos(x)).coeffs
    assert c[1, 0] == pytest.approx(2 * math.pi ** 2)
    assert c[-1, 0] == pytest.approx(2 * math.pi ** 2)
    mask = np.ones(g.shape, dtype=bool)
    mask[1, 0] = mask[-1, 0] = False
    assert np.max(np.abs(c[mask])) < 1e-9


def test_round_trip_random():
    g = make_grid(2, 32)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(g.shape)
    f = Field(g, vals)
    assert f.spectrum.shape == (32, 17)
    back = g.irfftn(f.spectrum)
    assert np.max(np.abs(back - vals)) <= 1e-12 * np.max(np.abs(vals))


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 256), (2, 32), (2, 256), (3, 16)])
def test_transform_pair_matches_scipy_fft(dim, n):
    # numpy.fft ships scipy.fft's pocketfft: the same bits in 1D and 2D; in 3D
    # numpy runs the complex passes in another axis order, a last-bit change
    import scipy.fft
    g = make_grid(dim, n)
    axes = tuple(range(dim))
    vals = np.random.default_rng(n + dim).standard_normal(g.shape)
    half, ref = g.rfftn(vals), scipy.fft.rfftn(vals, axes=axes, workers=1)
    back, ref_back = g.irfftn(ref), scipy.fft.irfftn(ref, s=g.shape, axes=axes, workers=1)
    if dim < 3:
        assert np.array_equal(half, ref) and np.array_equal(back, ref_back)
    else:
        assert np.max(np.abs(half - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert np.max(np.abs(back - ref_back)) <= 1e-15 * np.max(np.abs(ref_back))


@pytest.mark.parametrize("dim,n", [(1, 8), (2, 8), (3, 8)])
def test_rfftn_returns_a_fresh_writable_half_spectrum(dim, n):
    # the stepper writes into the output, and a Field freezes it in place
    g = make_grid(dim, n)
    vals = np.random.default_rng(dim).standard_normal(g.shape)
    first, second = g.rfftn(vals), g.rfftn(vals)
    for half in (first, second):
        assert half.shape == g.shape[:-1] + (n // 2 + 1,) and half.dtype == np.complex128
        assert half.flags.writeable and half.flags.owndata
    assert not np.shares_memory(first, second) and np.array_equal(first, second)
    first *= 2.0
    assert np.array_equal(g.rfftn(vals), second)


def test_parseval():
    g = make_grid(2, 32)
    rng = np.random.default_rng(4)
    for _ in range(50):
        f = Field(g, rng.standard_normal(g.shape))
        phys = np.sum(f.values ** 2) * g.cell_volume
        spec = (2 * math.pi) ** (-2) * np.sum(np.abs(f.coeffs) ** 2)
        assert phys == pytest.approx(spec, rel=1e-10)


def test_hermitian_symmetry():
    g = make_grid(2, 16)
    rng = np.random.default_rng(5)
    c = Field(g, rng.standard_normal(g.shape)).coeffs
    # u real -> c(-k) = conj(c(k)); compare via reversed-index trick
    flipped = np.conj(np.roll(c[::-1, ::-1], 1, axis=(0, 1)))
    assert np.max(np.abs(c - flipped)) < 1e-9


def test_sobolev_norm_values():
    g = make_grid(2, 32)
    x, _ = g.coordinates()
    const = Field(g, np.full(g.shape, -1.7))
    for s in (-1.0, 0.0, 2.0):
        assert sobolev_norm(const, s) == pytest.approx((2 * math.pi) ** 2 * 1.7)
    cosx = Field(g, np.cos(x))
    assert sobolev_norm(cosx, 0) == pytest.approx(2 * math.sqrt(2) * math.pi ** 2)
    assert sobolev_norm(cosx, 1) == pytest.approx(4 * math.pi ** 2)


def test_sobolev_monotone_in_s():
    g = make_grid(2, 16)
    rng = np.random.default_rng(6)
    f = Field(g, rng.standard_normal(g.shape))
    norms = [sobolev_norm(f, s) for s in (-1, 0, 1, 2, 3)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_l2_norm_constant():
    g = make_grid(2, 16)
    f = Field(g, np.full(g.shape, 2.0))
    assert l2_norm(f) == pytest.approx(2.0 * 2 * math.pi)


def test_field_shape_mismatch():
    g = make_grid(2, 16)
    with pytest.raises(GridError):
        Field(g, np.zeros((16, 8)))
    with pytest.raises(GridError):
        Field(g, np.zeros(g.shape), np.zeros((16, 16)))  # a full, not a half, spectrum


def test_rejected_field_arrays_stay_writeable():
    # the shapes are checked before the caller's arrays are frozen
    g = make_grid(2, 8)
    values, spectrum = np.zeros((8, 4)), np.zeros(g.shape, dtype=np.complex128)
    with pytest.raises(GridError):
        Field(g, values)
    with pytest.raises(GridError):
        Field(g, np.zeros(g.shape), spectrum)  # a full, not a half, spectrum
    assert values.flags.writeable and spectrum.flags.writeable


def test_field_takes_its_arrays_read_only():
    # no copy: the caller's arrays are the field's, frozen in place
    g = make_grid(2, 8)
    values = np.zeros(g.shape)
    spectrum = g.rfftn(values)
    f = Field(g, values, spectrum)
    assert f.values is values and f.spectrum is spectrum
    with pytest.raises(ValueError):
        values[0, 0] = 1.0
    with pytest.raises(ValueError):
        spectrum[0, 0] = 1.0
    ints = np.zeros(g.shape, dtype=np.int64)  # converted, so copied
    assert Field(g, ints).values.dtype == np.float64 and ints.flags.writeable


def test_field_values_immutable():
    g = make_grid(2, 8)
    f = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        f.spectrum[0, 0] = 1.0
