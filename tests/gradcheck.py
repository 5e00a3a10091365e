"""Central-difference gradients, the reference that the tape's backward
passes are checked against."""

import numpy as np

from temperlab.errors import ContractError
from temperlab.tensor import Tensor, wrap


def finite_difference_gradient(f, x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of a deterministic scalar function.

    `f` receives a Tensor sharing x's storage; each coordinate is perturbed
    by +/- h in turn and restored bitwise afterwards.
    """
    if h <= 0.0:
        raise ContractError(f"finite difference step must be positive, got {h}")
    base = np.array(x.array, dtype=np.float64)
    probe = wrap(base, False)
    flat = base.reshape(-1)
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = _scalar(f(probe))
        flat[i] = orig - h
        fm = _scalar(f(probe))
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * h)
    return wrap(grad.reshape(x.array.shape), False)


def _scalar(value) -> float:
    if isinstance(value, Tensor):
        return value.item()
    return float(value)
