import math

import numpy as np
import pytest

from qmtest import core, pauli
from qmtest.blackbox import BlackBox


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def comp_basis_measurement(D: int) -> core.Measurement:
    ops = [np.diag((np.arange(D) == i).astype(complex)) for i in range(D)]
    return core.validate_measurement(ops)


def one_local_measurement(n: int) -> core.Measurement:
    """Computational-basis readout of qubit 1 tensored with identity."""
    rest = np.eye(2 ** (n - 1))
    return core.validate_measurement([
        np.kron(np.diag([1.0, 0.0]).astype(complex), rest),
        np.kron(np.diag([0.0, 1.0]).astype(complex), rest),
    ])


def stab_pair_1q():
    return (
        pauli.stabilizer_measurement((0,), (1,)),
        pauli.stabilizer_measurement((1,), (0,)),
        pauli.stabilizer_measurement((1,), (1,)),
    )


def overlap_boxes(overlap: float, sampling: str):
    """Two one-outcome boxes whose outcome-0 post-states have the given overlap.

    The identity against diag(e^{it}, e^{-it}) has overlap |cos t|.
    """
    t = math.acos(overlap)
    U = np.diag([np.exp(1j * t), np.exp(-1j * t)])
    return (BlackBox(core.validate_measurement([np.eye(2)]), seed=0, sampling=sampling),
            BlackBox(core.validate_measurement([U]), seed=1, sampling=sampling))
