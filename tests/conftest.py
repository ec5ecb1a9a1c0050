import numpy as np
import pytest


def triple_loop_full(values, a, b, c):
    """Independent brute-force oracle for the full contraction."""
    total = 0.0
    n1, n2, n3 = values.shape
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                total += values[i, j, k] * a[i] * b[j] * c[k]
    return total


def triple_loop_mode(values, mode, p, q):
    """Brute-force one-free-mode contraction."""
    n1, n2, n3 = values.shape
    if mode == 1:
        out = np.zeros(n1)
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    out[i] += values[i, j, k] * p[j] * q[k]
    elif mode == 2:
        out = np.zeros(n2)
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    out[j] += values[i, j, k] * p[i] * q[k]
    else:
        out = np.zeros(n3)
        for i in range(n1):
            for j in range(n2):
                for k in range(n3):
                    out[k] += values[i, j, k] * p[i] * q[j]
    return out


def triple_loop_one(values, mode, p):
    """Brute-force single-mode contraction to a matrix."""
    n1, n2, n3 = values.shape
    if mode == 1:
        out = np.zeros((n2, n3))
        for i in range(n1):
            out += values[i] * p[i]
    elif mode == 2:
        out = np.zeros((n1, n3))
        for j in range(n2):
            out += values[:, j, :] * p[j]
    else:
        out = np.zeros((n1, n2))
        for k in range(n3):
            out += values[:, :, k] * p[k]
    return out


def dense(phi):
    """Phi as a dense N x N array, assembled from its blocks b12, b13, b23
    alone: the reference that PhiMatrix's own methods are checked against."""
    b12, b13, b23 = phi.b12, phi.b13, phi.b23
    (n1, n2), n3 = b12.shape, b23.shape[1]
    return np.block([
        [np.zeros((n1, n1)), b12, b13],
        [b12.T, np.zeros((n2, n2)), b23],
        [b13.T, b23.T, np.zeros((n3, n3))],
    ])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
