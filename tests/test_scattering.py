import numpy as np
import pytest

from qge import (
    HadamardOrderError,
    NoEquiTransmittingMatrixError,
    NumericalError,
    ParameterError,
    VertexScattering,
    equi_transmitting_sigma,
    is_equi_transmitting,
    kirchhoff_sigma,
    skew_hadamard,
)
from qge.scattering import SkewHadamard

CONSTRUCTIBLE = [2, 4, 8, 12, 16, 20, 24, 32, 48, 64]


class TestSkewHadamard:
    def test_order_2(self):
        h = skew_hadamard(2).entries
        assert np.array_equal(h, [[1, 1], [-1, 1]])

    @pytest.mark.parametrize("m", CONSTRUCTIBLE)
    def test_exact_identities(self, m):
        h = skew_hadamard(m).entries
        assert h.dtype.kind == "i"
        assert np.array_equal(h + h.T, 2 * np.eye(m, dtype=np.int64))
        assert np.array_equal(h @ h.T, m * np.eye(m, dtype=np.int64))

    def test_order_4_is_paley(self):
        # q = 3: first row all ones, first column -1 below the corner
        h = skew_hadamard(4).entries
        assert np.all(h[0] == 1)
        assert np.all(h[1:, 0] == -1)

    @pytest.mark.parametrize(
        "entries, match",
        [
            ([[1, 2], [-2, 1]], r"entries must be \+-1"),
            ([[1, 1], [1, 1]], r"H \+ H\^T = 2I"),
            ([[1, 1, 1], [-1, 1, 1], [-1, -1, 1]], "H H\\^T = mI"),
        ],
        ids=["entries", "skew", "orthogonal"],
    )
    def test_rejects_a_broken_identity(self, entries, match):
        # each matrix passes the checks before the one it fails; no skew
        # +-1 matrix of order 3 has orthogonal rows
        with pytest.raises(NumericalError, match=match):
            SkewHadamard(np.array(entries, dtype=np.int64))

    def test_doubling_reaches_16(self):
        # 15 is not prime, so 16 must come from doubling 8
        h = skew_hadamard(16).entries
        assert np.array_equal(h[:8, :8], h[:8, 8:])

    @pytest.mark.parametrize(
        "entries",
        [[[1, 1, 1], [-1, 1, 1]], [1, 1], [[1.0, 1.0], [-1.0, 1.0]]],
        ids=["not-square", "vector", "float"],
    )
    def test_rejects_what_is_not_a_square_integer_matrix(self, entries):
        with pytest.raises(ParameterError, match="square integer matrix"):
            SkewHadamard(np.array(entries))

    @pytest.mark.parametrize("m", [3, 5, 6, 10, 13, 52])
    def test_unsupported_orders(self, m):
        # the message names the order asked for, not one met while halving it
        with pytest.raises(HadamardOrderError, match=rf"for order {m};"):
            skew_hadamard(m)


class TestKirchhoff:
    def test_d2(self):
        assert np.allclose(kirchhoff_sigma(2).entries, [[0, 1], [1, 0]])

    def test_d4_entries(self):
        sig = kirchhoff_sigma(4).entries
        assert np.allclose(np.diag(sig), -0.5)
        off = sig[~np.eye(4, dtype=bool)]
        assert np.allclose(off, 0.5)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_involution(self, d):
        sig = kirchhoff_sigma(d).entries
        assert np.max(np.abs(sig @ sig - np.eye(d))) < 1e-12


class TestEquiTransmitting:
    def test_d2(self):
        sig = equi_transmitting_sigma(2).entries
        assert np.allclose(sig, [[0, 1], [-1, 0]])

    def test_d4_properties(self):
        sig = equi_transmitting_sigma(4).entries
        assert np.max(np.abs(np.diag(sig))) == 0.0
        off = np.abs(sig[~np.eye(4, dtype=bool)])
        assert np.allclose(off, 1 / np.sqrt(3))
        assert np.max(np.abs(sig @ sig.conj().T - np.eye(4))) < 1e-12

    def test_d3_nonexistent(self):
        with pytest.raises(NoEquiTransmittingMatrixError):
            equi_transmitting_sigma(3)

    @pytest.mark.parametrize("d", [2, 4, 8, 12, 16])
    def test_construction_passes_checker(self, d):
        assert is_equi_transmitting(equi_transmitting_sigma(d).entries)


class TestIsEquiTransmitting:
    def test_kirchhoff_fails(self):
        assert not is_equi_transmitting(kirchhoff_sigma(4).entries)

    def test_fourier_type_fails(self):
        # unitary with equal moduli everywhere, but the diagonal is nonzero
        dft = np.fft.fft(np.eye(4)) / 2.0
        assert np.max(np.abs(dft @ dft.conj().T - np.eye(4))) < 1e-12
        assert not is_equi_transmitting(dft)

    def test_non_unitary_fails(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        assert not is_equi_transmitting(m)

    def test_non_square_fails(self):
        assert not is_equi_transmitting(np.zeros((2, 3)))

    def test_empty_matrix_fails(self):
        # a 0 x 0 matrix is vacuously unitary, with no diagonal and no
        # off-diagonal entries to fail
        assert not is_equi_transmitting(np.zeros((0, 0)))


def test_vertex_matrix_must_be_square():
    for entries in (np.ones((2, 3)), np.ones(3), np.ones((1, 2, 2))):
        with pytest.raises(ParameterError, match="must be square"):
            VertexScattering(entries)
