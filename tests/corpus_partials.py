"""The corpus's partial derivatives written out by hand, one 2-D formula per
partial, as an oracle for the partials that the corpus derives from each
function's 1-D factors.  Every partial not listed is 0."""

import numpy as np


def _polynomial(partials):
    """Provider eval from {(i, j): d^(i+j) f / dx^i dy^j}; every other partial is 0."""

    def ev(i, j, x, y):
        g = partials.get((i, j))
        return 0.0 if g is None else g(np.asarray(x, float), np.asarray(y, float))

    return ev


def _quad(x, y):
    return np.square(x) + np.square(y)


def _smooth(i, j, x, y):
    # d^j/dy^j [e^(-y) cos y] = Re[(-1 + 1i)^j e^((-1 + 1i) y)]
    z = (-1.0 + 1.0j) ** j * np.exp((-1.0 + 1.0j) * y)
    return np.exp(x) * np.real(z)


_QUAD = _polynomial({
    (0, 0): _quad, (1, 0): lambda x, y: 2.0 * x, (0, 1): lambda x, y: 2.0 * y,
    (2, 0): lambda x, y: 2.0, (0, 2): lambda x, y: 2.0,
})

PARTIALS = {
    "const1": _polynomial({(0, 0): lambda x, y: 1.0}),
    "linear": _polynomial({
        (0, 0): np.add, (1, 0): lambda x, y: 1.0, (0, 1): lambda x, y: 1.0,
    }),
    "prod": _polynomial({
        (0, 0): np.multiply, (1, 0): lambda x, y: y, (0, 1): lambda x, y: x,
        (1, 1): lambda x, y: 1.0,
    }),
    "quad": _QUAD,
    "rho_growth": _QUAD,
    "smooth": _smooth,
}
POLYNOMIALS = ("const1", "linear", "prod", "quad", "rho_growth")
