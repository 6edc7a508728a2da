import pytest

from elliptic_dedekind import Lattice, QuadOrder, SumContext


@pytest.fixture(scope="session")
def order_m8():
    return QuadOrder(-8)


@pytest.fixture(scope="session")
def order_m7():
    return QuadOrder(-7)


@pytest.fixture(scope="session")
def order_gauss():
    return QuadOrder(-4)


@pytest.fixture(scope="session")
def order_eisenstein():
    return QuadOrder(-3)


@pytest.fixture(scope="session")
def ctx_m8(order_m8):
    return SumContext(order_m8)


@pytest.fixture(scope="session")
def ctx_gauss(order_gauss):
    return SumContext(order_gauss)


@pytest.fixture(scope="session")
def ctx_eisenstein(order_eisenstein):
    return SumContext(order_eisenstein)


@pytest.fixture(scope="session")
def hecke_lattices():
    """Lattices the Hecke-limit oracle is checked on: 13 orders (E2(0) = 0 on
    d = -3, -4), a skew basis, an elongated basis, and one basis in two forms."""
    orders = [QuadOrder(d) for d in (-3, -4, -7, -8, -11, -19, -43, -67, -163)]
    orders += [QuadOrder(d, f) for d, f in ((-8, 3), (-4, 5), (-7, 11), (-3, 7))]
    tau = complex(0.3, 1.7)
    return [Lattice.from_order(o) for o in orders] + [
        Lattice(complex(1.0, 0.5), complex(5.2, 3.1)),
        Lattice(0.3, 7j),
        Lattice(1.0, tau),
        Lattice(1.0, tau + 5),
    ]
