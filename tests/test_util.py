"""Tests for the shared helpers in repro._util."""

import numpy as np
import pytest

from repro._util import (
    as_float_array,
    as_index_array,
    as_rng,
    check_square,
    check_vector,
    cumulative_segments,
)


def test_as_rng_from_int_reproducible():
    a = as_rng(42).standard_normal(5)
    b = as_rng(42).standard_normal(5)
    assert np.array_equal(a, b)


def test_as_rng_passthrough():
    g = np.random.default_rng(0)
    assert as_rng(g) is g


def test_as_rng_none_gives_generator():
    assert isinstance(as_rng(None), np.random.Generator)


def test_as_float_array_coercion():
    out = as_float_array([1, 2, 3])
    assert out.dtype == np.float64
    assert out.flags["C_CONTIGUOUS"]


def test_as_float_array_copy_semantics():
    src = np.arange(3, dtype=np.float64)
    view = as_float_array(src)
    assert view is src or view.base is src  # a float64 vector is not copied


def test_as_float_array_rejects_3d():
    with pytest.raises(ValueError, match="1-D"):
        as_float_array(np.zeros((2, 2, 2)))


def test_as_float_array_rejects_2d_naming_the_argument():
    with pytest.raises(ValueError, match=r"data must be 1-D, got ndim=2"):
        as_float_array([[1.0, 2.0], [3.0, 4.0]], "data")
    with pytest.raises(TypeError):
        as_float_array([1.0], "data", copy=True)  # the keyword is gone


def test_as_index_array():
    out = as_index_array([1, 2])
    assert out.dtype == np.int64
    with pytest.raises(ValueError, match="1-D"):
        as_index_array(np.zeros((2, 2)))


def test_check_square():
    assert check_square((3, 3)) == 3
    with pytest.raises(ValueError, match="square"):
        check_square((3, 4))
    with pytest.raises(ValueError, match="square"):
        check_square((3,))


def test_check_vector():
    v = check_vector(np.arange(4.0), 4)
    assert v.dtype == np.float64
    with pytest.raises(ValueError, match="shape"):
        check_vector(np.arange(4.0), 5)
    with pytest.raises(ValueError, match="shape"):
        check_vector(np.zeros((2, 2)), 4)


def test_cumulative_segments():
    out = cumulative_segments(np.array([2, 0, 3]))
    assert out.tolist() == [0, 2, 2, 5]
    assert cumulative_segments(np.array([], dtype=np.int64)).tolist() == [0]
