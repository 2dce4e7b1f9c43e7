"""Built-in test functions with analytic metadata.

Each function is declared once, as f = sum_k g_k(x) h_k(y) with each 1-D factor
given by its derivatives; f and its closed-form derivative provider follow.
Entries add optional closed-form moduli (callables of (delta, A)) and
Lipschitz data.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional

import numpy as np

from .operators import Function2D
from .taylor import PartialDerivativeSet, _factored_partial


class CorpusLookupError(KeyError):
    pass


@dataclass(frozen=True)
class CorpusEntry:
    function: Function2D
    closed_form_moduli: Optional[dict] = None
    lipschitz_data: Optional[tuple] = None  # (gamma, M(A))
    derivative_provider: Optional[PartialDerivativeSet] = None


def _entry(name, *pairs, m_f=None, smooth=True, **metadata):
    """The entry of f = sum of g(x) h(y) over the pairs (g, h) of 1-D factors,
    each given by its derivatives (see ``PartialDerivativeSet``).  Unless
    ``smooth`` is False, its provider is declared by the same pairs."""
    f = Function2D(name=name, m_f=m_f, factors=_factored_partial(pairs, 0, 0).factors)
    provider = PartialDerivativeSet(factors=pairs) if smooth else None
    return CorpusEntry(function=f, derivative_provider=provider, **metadata)


def _damped_cos(k):
    """d^k/dy^k [e^-y cos y] = Re[(-1 + i)^k e^((-1 + i) y)], k > 0."""
    if k == 0:
        return lambda y: np.cos(y) * np.exp(-y)
    c = (-1.0 + 1.0j) ** k
    return lambda y: np.real(c * np.exp((-1.0 + 1.0j) * y))


_ONE, _T, _T2 = (1.0,), (lambda t: t, 1.0), (np.square, lambda t: 2.0 * t, 2.0)

_REGISTRY = {entry.function.name: entry for entry in (
    _entry("const1", (_ONE, _ONE), lipschitz_data=(1.0, lambda A: 0.0),
           closed_form_moduli=dict.fromkeys(("full", "partial_x", "partial_y"),
                                            lambda delta, A: 0.0)),
    _entry("linear", (_T, _ONE), (_ONE, _T), closed_form_moduli={
        "full": lambda delta, A: delta * math.sqrt(2.0),
        "partial_x": lambda delta, A: delta,
        "partial_y": lambda delta, A: delta,
    }, lipschitz_data=(1.0, lambda A: math.sqrt(2.0))),
    _entry("prod", (_T, _T), lipschitz_data=(1.0, lambda A: math.sqrt(1.0 + A * A))),
    _entry("quad", (_T2, _ONE), (_ONE, _T2),
           lipschitz_data=(1.0, lambda A: 2.0 * math.sqrt(1.0 + A * A))),
    # not differentiable at x = 1/2: no provider, and no derivative listed
    _entry("holder_half", ((lambda t: np.sqrt(np.abs(t - 0.5)),), _ONE),
           smooth=False, lipschitz_data=(0.5, lambda A: 1.0)),
    _entry("smooth", (lambda k: np.exp, _damped_cos)),  # e^x e^-y cos y
    _entry("rho_growth", (_T2, _ONE), (_ONE, _T2), m_f=1.0),
)}


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
