"""The single-band oracle: each axis's weights built as one band by the band
builders, with no blocks, for checking the operator's blocked sweeps."""

import numpy as np

from poslinops import DEFAULT_POLICY, KernelFamily
from poslinops.basis import bernstein_band_matrix, szasz_band_matrix


def single_band(params, m, n, xs, ys, policy=DEFAULT_POLICY,
                family=KernelFamily.BERNSTEIN_SZASZ):
    """Weight matrices WX, WY (one row per point, one band per axis) and the
    Stancu nodes tx, ty of their columns."""
    WX, a = bernstein_band_matrix(m, xs, policy)
    if family is KernelFamily.BERNSTEIN_SZASZ:
        WY, _, b = szasz_band_matrix(n, ys, policy)
    else:
        WY, b = bernstein_band_matrix(n, ys, policy)
    tx = (np.arange(a, a + WX.shape[1]) + params.alpha1) / (m + params.beta1)
    ty = (np.arange(b, b + WY.shape[1]) + params.alpha2) / (n + params.beta2)
    return WX, WY, tx, ty
