"""Built-in test functions with analytic metadata.

Each entry carries the function, optional closed-form moduli (callables of
(delta, A)), optional Lipschitz data and an optional closed-form derivative
provider for the order-r machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional

import numpy as np

from .operators import Function2D
from .taylor import PartialDerivativeSet


class CorpusLookupError(KeyError):
    pass


@dataclass(frozen=True)
class CorpusEntry:
    function: Function2D
    closed_form_moduli: Optional[dict] = None
    lipschitz_data: Optional[tuple] = None  # (gamma, M(A))
    derivative_provider: Optional[PartialDerivativeSet] = None


def _const_deriv(c):
    def ev(i, j, x, y):
        out = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))[0]
        if i == 0 and j == 0:
            return np.full_like(out, c)
        return np.zeros_like(out)

    return ev


def _linear_deriv(i, j, x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    base = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    if i == 0 and j == 0:
        return x + y + base
    if (i, j) in ((1, 0), (0, 1)):
        return base + 1.0
    return base


def _prod_deriv(i, j, x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    base = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    if (i, j) == (0, 0):
        return x * y + base
    if (i, j) == (1, 0):
        return y + base
    if (i, j) == (0, 1):
        return x + base
    if (i, j) == (1, 1):
        return base + 1.0
    return base


def _quad_deriv(i, j, x, y):
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    base = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    if (i, j) == (0, 0):
        return x * x + y * y + base
    if (i, j) == (1, 0):
        return 2.0 * x + base
    if (i, j) == (0, 1):
        return 2.0 * y + base
    if (i, j) in ((2, 0), (0, 2)):
        return base + 2.0
    return base


def _smooth(x, y):
    # e^x cos(y) e^(-y)
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return np.exp(x) * np.cos(y) * np.exp(-y)


def _smooth_deriv(i, j, x, y):
    # d^j/dy^j [e^(-y) cos y] = Re[(-1 + 1i)^j e^((-1 + 1i) y)]
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    z = (-1.0 + 1.0j) ** j * np.exp((-1.0 + 1.0j) * y)
    return np.exp(x) * np.real(z)


_REGISTRY = {}


def _register(name, entry):
    _REGISTRY[name] = entry


def _zero_modulus(delta, A):
    return 0.0


_register(
    "const1",
    CorpusEntry(
        function=Function2D(eval=lambda x, y: np.broadcast_arrays(
            np.asarray(x, float) * 0.0 + 1.0, np.asarray(y, float))[0],
            name="const1"),
        closed_form_moduli={
            "full": _zero_modulus,
            "partial_x": _zero_modulus,
            "partial_y": _zero_modulus,
        },
        lipschitz_data=(1.0, lambda A: 0.0),
        derivative_provider=PartialDerivativeSet(order=10, eval=_const_deriv(1.0)),
    ),
)

_register(
    "linear",
    CorpusEntry(
        function=Function2D(eval=lambda x, y: np.asarray(x, float)
                            + np.asarray(y, float), name="linear"),
        closed_form_moduli={
            "full": lambda delta, A: delta * math.sqrt(2.0),
            "partial_x": lambda delta, A: delta,
            "partial_y": lambda delta, A: delta,
        },
        lipschitz_data=(1.0, lambda A: math.sqrt(2.0)),
        derivative_provider=PartialDerivativeSet(order=10, eval=_linear_deriv),
    ),
)

_register(
    "prod",
    CorpusEntry(
        function=Function2D(eval=lambda x, y: np.asarray(x, float)
                            * np.asarray(y, float), name="prod"),
        lipschitz_data=(1.0, lambda A: math.sqrt(1.0 + A * A)),
        derivative_provider=PartialDerivativeSet(order=10, eval=_prod_deriv),
    ),
)

_register(
    "quad",
    CorpusEntry(
        function=Function2D(eval=lambda x, y: np.asarray(x, float) ** 2
                            + np.asarray(y, float) ** 2, name="quad"),
        lipschitz_data=(1.0, lambda A: 2.0 * math.sqrt(1.0 + A * A)),
        derivative_provider=PartialDerivativeSet(order=10, eval=_quad_deriv),
    ),
)

_register(
    "holder_half",
    CorpusEntry(
        function=Function2D(eval=lambda x, y: np.sqrt(
            np.abs(np.asarray(x, float) - 0.5))
            + 0.0 * np.asarray(y, float), name="holder_half"),
        lipschitz_data=(0.5, lambda A: 1.0),
    ),
)

_register(
    "smooth",
    CorpusEntry(
        function=Function2D(eval=_smooth, name="smooth"),
        derivative_provider=PartialDerivativeSet(order=10, eval=_smooth_deriv),
    ),
)

_register(
    "rho_growth",
    CorpusEntry(
        function=Function2D(eval=lambda x, y: np.asarray(x, float) ** 2
                            + np.asarray(y, float) ** 2, name="rho_growth",
                            growth="rho_dominated", m_f=1.0),
        derivative_provider=PartialDerivativeSet(order=10, eval=_quad_deriv),
    ),
)


def corpus_names():
    return sorted(_REGISTRY)


def corpus_lookup(name):
    """Return the registry entry for ``name``; raise with the available names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CorpusLookupError(
            f"unknown corpus function {name!r}; available: {', '.join(corpus_names())}"
        ) from None
