import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minimax_online import GameConfig, make_rng, norm, unit_direction
from minimax_online.core import UnsupportedDimensionError, complement_rows, linalg_norms, row_norms

# Orthogonality of sampled complement directions is checked at TOL_ORTHO.
TOL_ORTHO = 1e-12

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec(dim_min=1, dim_max=6):
    return st.lists(finite_coord, min_size=dim_min, max_size=dim_max).map(np.array)


@given(pair=st.tuples(st.integers(2, 5), st.data()))
@settings(max_examples=50)
def test_triangle_inequality(pair):
    d, data = pair
    a = np.array(data.draw(st.lists(finite_coord, min_size=d, max_size=d)))
    b = np.array(data.draw(st.lists(finite_coord, min_size=d, max_size=d)))
    assert norm(a + b) <= norm(a) + norm(b) + 1e-6 * (1 + norm(a) + norm(b))


def test_norm_at_float64_extremes():
    # squaring these coordinates underflows / overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert norm(np.array([1e-200])) == 1e-200
        assert norm(np.array([1e200])) == 1e200
        assert norm(np.zeros(3)) == 0.0


def test_norm_of_a_non_finite_vector():
    # an infinite coordinate gives inf and a NaN gives NaN, as np.linalg.norm does, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert norm(np.array([np.inf, 1.0])) == np.inf
        assert norm(np.array([1e300, -np.inf])) == np.inf
        assert np.isnan(norm(np.array([np.nan, 1.0])))
        assert np.isnan(norm(np.array([np.nan, np.inf])))
        got = row_norms(np.array([[np.inf, 1.0], [1.0, 2.0], [np.nan, 1.0], [1e200, 1e200]]))
    assert got[0] == np.inf and np.isnan(got[2])
    assert got[[1, 3]].tolist() == [norm(np.array([1.0, 2.0])), norm(np.array([1e200, 1e200]))]


def test_row_norms_past_the_float64_range_is_inf_without_a_warning():
    # finite coordinates whose norm, about 2.4e308, has no float64
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = row_norms(np.array([[1.7e308, 1.7e308], [3.0, 4.0]]))
    assert got.tolist() == [np.inf, 5.0]


def test_linalg_norms_is_linalg_norm_in_range_and_exact_outside():
    # in range, np.linalg.norm's value, which a sweep's u_norm and a trace CSV's theta_norm have always
    # been spelled from; it differs from norm's by an ulp for some ordinary vectors
    rng = make_rng(5)
    differ = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for d in range(1, 17):
            for scale in (1e-140, 1e-3, 1.0, 1e3, 1e140):
                u = scale * rng.standard_normal((3, d))
                got = linalg_norms(u)
                assert got.tolist() == [float(np.linalg.norm(row)) for row in u]
                differ += sum(n != norm(row) for n, row in zip(got, u))
        assert linalg_norms(np.zeros((2, 4))).tolist() == [0.0, 0.0]
        assert linalg_norms(np.zeros((0, 4))).shape == (0,)
        # outside it, np.linalg.norm's squares overflow to inf or underflow; norm is exact
        for scale in (1e-300, 1e-160, 1e155, 1e300):
            u = scale * np.array([[0.6, 0.8, 0.0], [3.0, 4.0, 0.0]])
            assert linalg_norms(u).tolist() == [norm(row) for row in u]
            assert linalg_norms(u) == pytest.approx([scale, 5.0 * scale], rel=1e-15)
    assert differ > 0


def test_unit_direction_examples():
    assert np.array_equal(unit_direction(np.zeros(2)), np.zeros(2))
    np.testing.assert_allclose(unit_direction(np.array([3.0, 4.0])), [0.6, 0.8], rtol=1e-15)
    np.testing.assert_allclose(unit_direction(np.array([-2.0, 0.0])), [-1.0, 0.0], rtol=1e-15)
    # squaring these coordinates underflows / overflows float64; the direction
    # must still come out exactly, without an overflow warning
    for v, expected in (([1e-200, -5e-201], [2.0 / np.sqrt(5.0), -1.0 / np.sqrt(5.0)]),
                        ([1e300, 1e300], [np.sqrt(0.5), np.sqrt(0.5)])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            e = unit_direction(np.array(v))
        np.testing.assert_allclose(e, expected, rtol=1e-15)
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-15


def test_unit_direction_of_a_non_finite_vector():
    # infinite coordinates give the normalized signs of those coordinates, a NaN gives all NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert unit_direction(np.array([np.inf, 1.0])).tolist() == [1.0, 0.0]
        assert unit_direction(np.array([1e300, -np.inf, 0.0])).tolist() == [0.0, -1.0, 0.0]
        both = unit_direction(np.array([-np.inf, np.inf]))
        nan_rows = [unit_direction(np.array(v)) for v in ([np.nan, 1.0], [np.nan, np.inf], [np.inf, np.nan])]
    assert np.array_equal(both, np.array([-1.0, 1.0]) / np.sqrt(2.0))
    assert all(np.isnan(e).all() for e in nan_rows)
    # finite coordinates whose norm is past the float64 range
    with np.errstate(over="ignore"):
        huge = unit_direction(np.array([1.7e308, -1.7e308]))
    assert np.array_equal(huge, np.array([1.0, -1.0]) / np.sqrt(2.0))


@given(v=vec(1, 6))
@example(v=np.array([7.64e-161]))
@example(v=np.array([5e-324, 5e-324]))
def test_unit_direction_idempotent(v):
    once = unit_direction(v)
    twice = unit_direction(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def complements(theta, seeds):
    """complement_rows of the rows of theta, row k on the stream of seeds[k]."""
    theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    return complement_rows(theta, row_norms(theta), [make_rng(seed) for seed in seeds])


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_complement_sample_contract(dim, seed):
    rng = make_rng(seed)
    theta = np.array([np.zeros(dim), rng.standard_normal(dim), 100.0 * rng.standard_normal(dim)])
    # three rows at once (one with theta = 0), then each row alone
    for rows, seeds in [(theta, [seed, seed + 1, seed + 2])] + [(row, [seed]) for row in theta]:
        v = complements(rows, seeds)
        rows = np.atleast_2d(rows)
        assert v.shape == rows.shape
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-12)
        assert np.all(np.abs(np.einsum("ij,ij->i", v, rows)) <= 1e-12 * np.maximum(np.linalg.norm(rows, axis=1), 1.0))


def test_complement_sample_axis():
    v = complements([[1.0, 0.0]], [0])[0]
    assert v[0] == 0.0
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_complement_sample_needs_dim2():
    with pytest.raises(UnsupportedDimensionError):
        complements([[1.0]], [0])


@pytest.mark.parametrize("theta", [[1e-200, 2e-200, 0.0], [1e200, 2e200, 0.0], [5e-324, 0.0], [1e308, -1e308]])
def test_complement_sample_at_float64_extremes(theta):
    # alone, then in a batch with a zero row and a unit row
    theta = np.array(theta)
    zero, unit = np.zeros_like(theta), np.eye(1, theta.size)[0]
    for rows in (theta[None, :], np.array([zero, theta, unit])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = complements(rows, range(len(rows)))
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1.0) <= 1e-12)
        assert np.all(np.abs(np.einsum("ij,ij->i", v, [unit_direction(row) for row in rows])) <= TOL_ORTHO)


@pytest.mark.parametrize("theta", [[1.5e308, 1.5e308, 0.0], [1e308, -1.7e308, 3.0, -1e308, 0.5]])
def test_complement_of_a_state_whose_norm_is_inf(theta):
    # ||theta|| leaves float64 while its coordinates do not: its direction is still theta's, and the
    # batch's other rows, of finite norms, keep the bits they have alone
    theta = np.array(theta)
    zero, unit = np.zeros_like(theta), np.eye(1, theta.size)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = complements([zero, theta, unit], [0, 1, 2])
    assert row_norms(theta[None, :])[0] == np.inf
    assert abs(np.linalg.norm(v[1]) - 1.0) <= 1e-12
    assert abs(v[1] @ unit_direction(theta)) <= TOL_ORTHO
    assert v[[0, 2]].tobytes() == complements([zero, unit], [0, 2]).tobytes()


def test_complement_gram_schmidt_case():
    theta = np.array([1.0, 1.0, 0.0])
    v = complements([theta, 2.0 * theta, -theta], [3, 4, 5])
    assert np.all(np.abs(v @ theta) <= 1e-12 * np.linalg.norm(theta))


def test_game_config_validation():
    cfg = GameConfig(dim=3, grad_bound=2.0, horizon=10, seed=1)
    assert cfg.known_horizon and cfg.horizon == 10
    assert not GameConfig(dim=1, grad_bound=1.0).known_horizon
    with pytest.raises(ValueError):
        GameConfig(dim=0, grad_bound=1.0)
    with pytest.raises(ValueError):
        GameConfig(dim=1, grad_bound=0.0)
    with pytest.raises(ValueError):
        GameConfig(dim=1, grad_bound=1.0, horizon=0)


@pytest.mark.parametrize("field, value, message", [
    ("dim", 2.5, "dim must be an integer, got 2.5"),
    ("dim", True, "dim must be an integer, got True"),
    ("grad_bound", np.inf, "grad_bound G must be positive and finite, got inf"),
    ("grad_bound", np.nan, "grad_bound G must be positive and finite, got nan"),
    ("horizon", 2.5, "horizon T must be an integer >= 1 or 'unknown', got 2.5"),
    ("horizon", True, "horizon T must be an integer >= 1 or 'unknown', got True"),
    ("horizon", "7", "horizon T must be an integer >= 1 or 'unknown', got '7'"),
    ("seed", -1, "seed must be an integer in \\[0, 18446744073709551615\\], got -1"),
    ("seed", 2**64, "seed must be an integer in \\[0, 18446744073709551615\\], got 18446744073709551616"),
    ("seed", 1.0, "seed must be an integer in \\[0, 18446744073709551615\\], got 1.0"),
], ids=["dim_float", "dim_bool", "grad_bound_inf", "grad_bound_nan", "horizon_float", "horizon_bool", "horizon_str",
        "seed_negative", "seed_2**64", "seed_float"])
def test_game_config_checks_its_fields(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GameConfig(**{"dim": 2, "grad_bound": 1.0, field: value})


def test_game_config_takes_numpy_integers():
    cfg = GameConfig(dim=np.int64(3), grad_bound=np.float64(0.5), horizon=np.int32(7), seed=np.uint64(2**64 - 1))
    assert cfg.horizon == 7 and type(cfg.horizon) is int and cfg.seed == 2**64 - 1
    assert make_rng(cfg.seed).standard_normal() == make_rng(2**64 - 1).standard_normal()


def test_rng_streams_are_deterministic():
    a = make_rng(42).standard_normal(8)
    b = make_rng(42).standard_normal(8)
    c = make_rng(43).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
