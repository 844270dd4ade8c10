# ducclab first: it sets OpenBLAS's idle-thread timeout only if numpy has not
# loaded OpenBLAS yet, so the in-process tests run under the BLAS runtime of
# a command-line run
import ducclab as dl
from ducclab import cli

import numpy as np
import pytest
from hypothesis import settings

from ducclab.operators import exp_anti_hermitian

# every @given test draws the examples derived from its own source, so that
# the suite runs the same inputs each time; timing is left to the suite
settings.register_profile("ducclab", derandomize=True, deadline=None)
settings.load_profile("ducclab")


@pytest.fixture(scope="session")
def dimer_basis():
    return dl.build_basis(4, 2)


@pytest.fixture(scope="session")
def dimer_H(dimer_basis):
    return dl.hamiltonian_from_integrals(dl.hubbard_integrals(2, 1.0, 4.0), dimer_basis)


@pytest.fixture(scope="session")
def dimer_part():
    return dl.homo_lumo_partition(4, 2, 1, 1)


@pytest.fixture(scope="session")
def dimer_ref(dimer_part):
    return dimer_part.reference()


@pytest.fixture(scope="session")
def m8_basis():
    return dl.build_basis(8, 4)


@pytest.fixture(scope="session")
def m8_ref():
    return dl.aufbau_reference(8, 4)


@pytest.fixture(scope="session")
def m8_part():
    return dl.homo_lumo_partition(8, 4, 2, 2)


@pytest.fixture(scope="session")
def m6_basis():
    return dl.build_basis(6, 3)


@pytest.fixture(scope="session")
def m6_ref():
    return dl.aufbau_reference(6, 3)


@pytest.fixture(scope="session")
def m6_part():
    return dl.homo_lumo_partition(6, 3, 1, 2)


def random_state(basis, rng, ref=None, min_ref_weight=0.3):
    """Random normalized state with a guaranteed reference component."""
    psi = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    psi /= np.linalg.norm(psi)
    if ref is not None:
        i0 = basis.index_of(ref)
        psi[i0] += min_ref_weight * np.exp(1j * np.angle(psi[i0])) * 3
        psi /= np.linalg.norm(psi)
    return psi


def count_calls(monkeypatch, module, name, calls, key=None):
    """Replace ``module.name`` for the test by a wrapper that counts its
    calls in ``calls[name]``, or with ``key`` in ``calls[key(*args, **kwargs)]``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        k = name if key is None else key(*args, **kwargs)
        calls[k] = calls.get(k, 0) + 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def record_returns(monkeypatch, module, name) -> list:
    """Replace ``module.name`` for the test by a wrapper that appends the
    value of each call to the list returned."""
    fn, returned = getattr(module, name), []

    def recorded(*args, **kwargs):
        returned.append(fn(*args, **kwargs))
        return returned[-1]
    monkeypatch.setattr(module, name, recorded)
    return returned


DIMER_CONFIG = {"system": {"kind": "hubbard", "L": 2, "t": 1.0, "U": 4.0},
                "electrons": 2, "partition": {"auto_homo_lumo": [1, 1]}}


def run_dimer_task(name, **params):
    """One command-line task on the Hubbard dimer at seed 1: the run
    context, the task's results and its artifacts ``{file name: text}``."""
    ctx = cli.build_context({**DIMER_CONFIG, "tasks": [{"name": name, **params}]}, seed=1)
    return (ctx, *cli.run_task(ctx, name, params))


def td_projection(H, sigma, cas, sigma_dot=None):
    """:func:`ducclab.ducc_projection` on the CAS columns ``R`` of e^{sigma}
    and, with ``sigma_dot``, the CAS block ``R^+ L`` of e^{-sigma} d/dt
    e^{sigma}, both from one series action."""
    cols = np.eye(len(sigma))[:, cas]
    if sigma_dot is None:
        return dl.ducc_projection(H, exp_anti_hermitian(sigma, cols))
    R, L = exp_anti_hermitian(sigma, cols, sigma_dot)
    return dl.ducc_projection(H, R, R.conj().T @ L)
