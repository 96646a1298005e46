import numpy as np
import pytest

from adafd import Objective


def sphere_objective(dim: int) -> Objective:
    """f(x) = ||x||^2 with gradient 2x; gradient-Lipschitz constant 2."""
    return Objective(
        dim=dim,
        evaluator=lambda x: float(x @ x),
        analytic_gradient=lambda x: 2.0 * x,
        lipschitz_grad_fn=lambda: 2.0,
    )


def linear_objective(c) -> Objective:
    c = np.asarray(c, dtype=float)
    return Objective(
        dim=c.shape[0],
        evaluator=lambda x: float(c @ x),
        analytic_gradient=lambda x: c.copy(),
    )


def constant_objective(dim: int, value: float = 3.0) -> Objective:
    return Objective(
        dim=dim,
        evaluator=lambda x: value,
        analytic_gradient=lambda x: np.zeros(dim),
        lipschitz_grad_fn=lambda: 0.0,
    )


def cusp_objective() -> Objective:
    """1-D f(x) = sign(x) * (2/3) * sqrt(|x|^3); derivative sqrt(|x|)."""

    def f(x):
        t = float(x[0])
        return (2.0 / 3.0) * np.sqrt(abs(t) ** 3) * (1.0 if t >= 0 else -1.0)

    return Objective(dim=1, evaluator=f)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
