"""Built-in test functions with analytic metadata.

Each entry carries the function with its factors g(x) h(y), optional
closed-form moduli (callables of (delta, A)), optional Lipschitz data and an
optional closed-form derivative provider for the order-r machinery.
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


def _polynomial_deriv(partials):
    """Provider from {(i, j): d^(i+j) f / dx^i dy^j}; every other partial is 0."""

    def ev(i, j, x, y):
        g = partials.get((i, j))
        return 0.0 if g is None else g(np.asarray(x, float), np.asarray(y, float))

    return ev


def _quad(x, y):
    return np.square(x) + np.square(y)


def _one(t):
    return 1.0


def _identity(t):
    return t


_SQUARES = ((np.square, _one), (_one, np.square))


_const_deriv = _polynomial_deriv({(0, 0): lambda x, y: 1.0})
_linear_deriv = _polynomial_deriv({
    (0, 0): np.add, (1, 0): lambda x, y: 1.0, (0, 1): lambda x, y: 1.0,
})
_prod_deriv = _polynomial_deriv({
    (0, 0): np.multiply, (1, 0): lambda x, y: y, (0, 1): lambda x, y: x,
    (1, 1): lambda x, y: 1.0,
})
_quad_deriv = _polynomial_deriv({
    (0, 0): _quad, (1, 0): lambda x, y: 2.0 * x, (0, 1): lambda x, y: 2.0 * y,
    (2, 0): lambda x, y: 2.0, (0, 2): lambda x, y: 2.0,
})


def _smooth(x, y):
    # e^x cos(y) e^(-y)
    return np.exp(x) * np.cos(y) * np.exp(-y)


def _smooth_deriv(i, j, x, y):
    # d^j/dy^j [e^(-y) cos y] = Re[(-1 + 1i)^j e^((-1 + 1i) y)]
    z = (-1.0 + 1.0j) ** j * np.exp((-1.0 + 1.0j) * y)
    return np.exp(x) * np.real(z)


def _zero_modulus(delta, A):
    return 0.0


_REGISTRY = {
    "const1": CorpusEntry(
        function=Function2D(eval=lambda x, y: 1.0, name="const1",
                            factors=((_one, _one),)),
        closed_form_moduli={
            "full": _zero_modulus,
            "partial_x": _zero_modulus,
            "partial_y": _zero_modulus,
        },
        lipschitz_data=(1.0, lambda A: 0.0),
        derivative_provider=PartialDerivativeSet(_const_deriv),
    ),
    "linear": CorpusEntry(
        function=Function2D(eval=np.add, name="linear",
                            factors=((_identity, _one), (_one, _identity))),
        closed_form_moduli={
            "full": lambda delta, A: delta * math.sqrt(2.0),
            "partial_x": lambda delta, A: delta,
            "partial_y": lambda delta, A: delta,
        },
        lipschitz_data=(1.0, lambda A: math.sqrt(2.0)),
        derivative_provider=PartialDerivativeSet(_linear_deriv),
    ),
    "prod": CorpusEntry(
        function=Function2D(eval=np.multiply, name="prod",
                            factors=((_identity, _identity),)),
        lipschitz_data=(1.0, lambda A: math.sqrt(1.0 + A * A)),
        derivative_provider=PartialDerivativeSet(_prod_deriv),
    ),
    "quad": CorpusEntry(
        function=Function2D(eval=_quad, name="quad", factors=_SQUARES),
        lipschitz_data=(1.0, lambda A: 2.0 * math.sqrt(1.0 + A * A)),
        derivative_provider=PartialDerivativeSet(_quad_deriv),
    ),
    "holder_half": CorpusEntry(
        function=Function2D(eval=lambda x, y: np.sqrt(
            np.abs(np.asarray(x, float) - 0.5)), name="holder_half",
            factors=((lambda x: np.sqrt(np.abs(x - 0.5)), _one),)),
        lipschitz_data=(0.5, lambda A: 1.0),
    ),
    "smooth": CorpusEntry(
        function=Function2D(eval=_smooth, name="smooth", factors=(
            (np.exp, lambda y: np.cos(y) * np.exp(-y)),)),
        derivative_provider=PartialDerivativeSet(_smooth_deriv),
    ),
    "rho_growth": CorpusEntry(
        function=Function2D(eval=_quad, name="rho_growth", m_f=1.0,
                            factors=_SQUARES),
        derivative_provider=PartialDerivativeSet(_quad_deriv),
    ),
}


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
