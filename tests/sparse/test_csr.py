"""Unit tests for the CSR compute format."""

import numpy as np
import pytest

from repro.sparse import COOMatrix, CSRMatrix


def dense_pair(rng, shape=(12, 9), thresh=0.8):
    dense = rng.standard_normal(shape)
    dense[np.abs(dense) < thresh] = 0.0
    return CSRMatrix.from_dense(dense), dense


# --------------------------------------------------------------------- #
# construction / validation
# --------------------------------------------------------------------- #


def test_validation_indptr_length():
    with pytest.raises(ValueError, match="indptr"):
        CSRMatrix([0, 1], [0], [1.0], (3, 3))


def test_validation_indptr_monotone():
    with pytest.raises(ValueError, match="non-decreasing"):
        CSRMatrix([0, 2, 1, 3], [0, 1, 0], [1.0, 2.0, 3.0], (3, 3))


def test_validation_indptr_ends_at_nnz():
    with pytest.raises(ValueError, match="nnz"):
        CSRMatrix([0, 1, 1, 5], [0], [1.0], (3, 3))


def test_validation_column_bounds():
    with pytest.raises(ValueError, match="column index"):
        CSRMatrix([0, 1], [5], [1.0], (1, 3))


def test_validation_sorted_unique_columns():
    with pytest.raises(ValueError, match="sorted"):
        CSRMatrix([0, 2], [1, 0], [1.0, 2.0], (1, 3))
    with pytest.raises(ValueError, match="sorted"):
        CSRMatrix([0, 2], [1, 1], [1.0, 2.0], (1, 3))


def test_identity():
    eye = CSRMatrix.identity(4)
    assert np.array_equal(eye.to_dense(), np.eye(4))


def test_diagonal_matrix():
    d = CSRMatrix.diagonal_matrix([1.0, 2.0, 3.0])
    assert np.array_equal(d.to_dense(), np.diag([1.0, 2.0, 3.0]))


def test_from_scipy(rng):
    import scipy.sparse as sp

    dense = rng.standard_normal((7, 7))
    dense[np.abs(dense) < 1.0] = 0.0
    m = CSRMatrix.from_scipy(sp.csr_matrix(dense))
    assert np.array_equal(m.to_dense(), dense)


# --------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------- #


def test_matvec_matches_dense(rng):
    A, dense = dense_pair(rng)
    x = rng.standard_normal(dense.shape[1])
    assert np.allclose(A.matvec(x), dense @ x)


def test_matvec_via_matmul(rng):
    A, dense = dense_pair(rng)
    x = rng.standard_normal(dense.shape[1])
    assert np.allclose(A @ x, dense @ x)


def test_matvec_out_parameter(rng):
    A, dense = dense_pair(rng)
    x = rng.standard_normal(dense.shape[1])
    out = np.empty(dense.shape[0])
    y = A.matvec(x, out=out)
    assert y is out
    assert np.allclose(out, dense @ x)


def test_matvec_empty_rows(small_rect):
    A, dense = small_rect
    x = np.ones(dense.shape[1])
    y = A.matvec(x)
    assert np.allclose(y, dense @ x)
    assert y[7] == 0.0  # the empty row


def test_matvec_wrong_length(rng):
    A, dense = dense_pair(rng)
    with pytest.raises(ValueError, match="shape"):
        A.matvec(np.ones(dense.shape[1] + 1))


def test_matvec_zero_matrix():
    A = COOMatrix.empty((3, 4)).tocsr()
    assert np.array_equal(A.matvec(np.ones(4)), np.zeros(3))


def test_rmatvec_matches_dense(rng):
    A, dense = dense_pair(rng)
    y = rng.standard_normal(dense.shape[0])
    assert np.allclose(A.rmatvec(y), dense.T @ y)


def test_rmatvec_wrong_length(rng):
    A, dense = dense_pair(rng)
    with pytest.raises(ValueError, match="shape"):
        A.rmatvec(np.ones(dense.shape[0] + 2))


def test_residual(rng):
    A, dense = dense_pair(rng, shape=(8, 8))
    x = rng.standard_normal(8)
    b = rng.standard_normal(8)
    assert np.allclose(A.residual(x, b), b - dense @ x)


def test_diagonal(small_spd):
    dense = small_spd.to_dense()
    assert np.allclose(small_spd.diagonal(), np.diag(dense))


def test_diagonal_rectangular(rng):
    A, dense = dense_pair(rng, shape=(5, 9))
    assert np.allclose(A.diagonal(), np.diag(dense)[:5])


# --------------------------------------------------------------------- #
# structural surgery
# --------------------------------------------------------------------- #


def test_split_diagonal(small_spd):
    dense = small_spd.to_dense()
    d, off = small_spd.split_diagonal()
    assert np.allclose(d, np.diag(dense))
    assert np.allclose(off.to_dense(), dense - np.diag(np.diag(dense)))
    assert np.all(off.diagonal() == 0.0)


def test_triangles(rng):
    A, dense = dense_pair(rng, shape=(10, 10))
    assert np.allclose(A.lower_triangle().to_dense(), np.tril(dense, -1))
    assert np.allclose(A.upper_triangle().to_dense(), np.triu(dense, 1))
    assert np.allclose(A.lower_triangle(strict=False).to_dense(), np.tril(dense))
    assert np.allclose(A.upper_triangle(strict=False).to_dense(), np.triu(dense))


def test_row_slice(rng):
    A, dense = dense_pair(rng)
    s = A.row_slice(3, 8)
    assert s.shape == (5, dense.shape[1])
    assert np.allclose(s.to_dense(), dense[3:8])


def test_row_slice_bounds(rng):
    A, _ = dense_pair(rng)
    with pytest.raises(ValueError, match="row range"):
        A.row_slice(5, 100)
    with pytest.raises(ValueError, match="row range"):
        A.row_slice(-1, 3)


def test_row_slice_empty():
    A = CSRMatrix.identity(4)
    s = A.row_slice(2, 2)
    assert s.shape == (0, 4)
    assert s.nnz == 0


def test_column_range_split(rng):
    A, dense = dense_pair(rng, shape=(10, 12))
    local, glob = A.column_range_split(4, 9)
    mask = np.zeros(12, dtype=bool)
    mask[4:9] = True
    assert np.allclose(local.to_dense(), dense * mask)
    assert np.allclose(glob.to_dense(), dense * ~mask)
    # The two parts exactly reassemble the matrix.
    assert np.allclose(local.to_dense() + glob.to_dense(), dense)


def test_column_range_split_bounds(rng):
    A, _ = dense_pair(rng)
    with pytest.raises(ValueError, match="column range"):
        A.column_range_split(5, 100)


def test_transpose(rng):
    A, dense = dense_pair(rng, shape=(6, 11))
    assert np.allclose(A.transpose().to_dense(), dense.T)


def test_abs(rng):
    A, dense = dense_pair(rng)
    assert np.allclose(A.abs().to_dense(), np.abs(dense))


def test_scale_rows_cols(rng):
    A, dense = dense_pair(rng, shape=(5, 7))
    r = rng.standard_normal(5)
    c = rng.standard_normal(7)
    assert np.allclose(A.scale_rows(r).to_dense(), np.diag(r) @ dense)
    assert np.allclose(A.scale_cols(c).to_dense(), dense @ np.diag(c))
    with pytest.raises(ValueError):
        A.scale_rows(np.ones(6))
    with pytest.raises(ValueError):
        A.scale_cols(np.ones(6))


def test_add(rng):
    A, da = dense_pair(rng, shape=(6, 6))
    B, db = dense_pair(np.random.default_rng(5), shape=(6, 6))
    assert np.allclose(A.add(B).to_dense(), da + db)
    assert np.allclose(A.add(B, alpha=-2.0).to_dense(), da - 2 * db)


def test_add_shape_mismatch(rng):
    A, _ = dense_pair(rng, shape=(6, 6))
    B, _ = dense_pair(rng, shape=(5, 6))
    with pytest.raises(ValueError, match="shape"):
        A.add(B)


def test_eliminate_zeros():
    A = CSRMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
    B = A.add(A, alpha=-1.0)  # all-zero values, full pattern
    assert B.nnz == 4
    assert B.eliminate_zeros().nnz == 0


def test_copy_independent(small_spd):
    c = small_spd.copy()
    c.data[0] += 1.0
    assert small_spd.data[0] != c.data[0]


# --------------------------------------------------------------------- #
# norms
# --------------------------------------------------------------------- #


def test_norms(rng):
    A, dense = dense_pair(rng)
    assert np.isclose(A.norm_inf(), np.abs(dense).sum(axis=1).max())
    assert np.isclose(A.norm_fro(), np.linalg.norm(dense))
    assert np.allclose(A.row_abs_sums(), np.abs(dense).sum(axis=1))


def test_row_nnz(small_rect):
    A, dense = small_rect
    assert np.array_equal(A.row_nnz(), (dense != 0).sum(axis=1))


def test_to_scipy_roundtrip(rng):
    A, dense = dense_pair(rng)
    B = CSRMatrix.from_scipy(A.to_scipy())
    assert np.array_equal(B.to_dense(), dense)


def test_to_coo_roundtrip(rng):
    A, dense = dense_pair(rng)
    assert np.array_equal(A.to_coo().tocsr().to_dense(), dense)


# --------------------------------------------------------------------- #
# one vector per product
# --------------------------------------------------------------------- #


def test_matvec_multivector_out_and_validation(rng):
    # Products take one (ncols,) vector: a stacked operand is refused with
    # the shape it should have had.
    A, _ = dense_pair(rng)
    with pytest.raises(ValueError, match=r"x must have shape \(9,\), got \(4, 9\)"):
        A.matvec(rng.standard_normal((4, 9)), out=np.empty((4, 12)))
    with pytest.raises(ValueError, match=r"\(9,\)"):
        A.matvec(np.ones((4, 8)))
    with pytest.raises(ValueError, match=r"\(9,\)"):
        A.matvec(np.ones((2, 4, 9)))
    # A wrong-length out is refused too, not filled in part.
    with pytest.raises(ValueError, match=r"out must have shape \(12,\), got \(7,\)"):
        A.matvec(np.ones(9), out=np.empty(7))
    with pytest.raises(ValueError, match=r"out must have shape \(12,\), got \(7,\)"):
        COOMatrix.empty((12, 9)).tocsr().matvec(np.ones(9), out=np.empty(7))
    assert not hasattr(A, "matvec_rows")


def test_residual_multivector(rng):
    # Both residual paths — the ELL product and the offset planes — refuse
    # an (R, n) stack as x, whatever the right-hand side's shape, and as b.
    ell, _ = dense_pair(rng, shape=(20, 20), thresh=0.6)
    planes = CSRMatrix.from_dense(np.eye(20) * 4 - np.eye(20, k=1) - np.eye(20, k=-1))
    assert ell.offset_planes()[0] is None and planes.offset_planes()[0] is not None
    X = rng.standard_normal((3, 20))
    B = rng.standard_normal((3, 20))
    for A in (ell, planes):
        for b in (B[0], B):
            with pytest.raises(ValueError, match=r"x must have shape \(20,\), got \(3, 20\)"):
                A.residual(X, b)
        with pytest.raises(ValueError, match=r"b must have shape \(20,\), got \(3, 20\)"):
            A.residual(X[0], B)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda data: CSRMatrix([0, 1, 2], [0, 1], data, (2, 2)), "data"),
        (lambda data: COOMatrix([0, 1], [0, 1], data, (2, 2)), "data"),
        (CSRMatrix.diagonal_matrix, "diagonal"),
    ],
    ids=["csr", "coo", "diagonal_matrix"],
)
def test_two_dimensional_data_is_refused_at_construction(build, name):
    # len() of a (2, 2) array is 2 == nnz, so only the 1-D check catches it.
    with pytest.raises(ValueError, match=rf"{name} must be 1-D, got ndim=2"):
        build([[1.0, 2.0], [3.0, 4.0]])
