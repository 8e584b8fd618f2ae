import pytest

from liechar import DecompositionProvider, QrData, RootSystem
from liechar.rootdata import CartanMatrix


@pytest.fixture(scope="session")
def rs_a1():
    return RootSystem(CartanMatrix.builtin("A1"))


@pytest.fixture(scope="session")
def rs_a2():
    return RootSystem(CartanMatrix.builtin("A2"))


@pytest.fixture(scope="session")
def rs_b2():
    return RootSystem(CartanMatrix.builtin("B2"))


@pytest.fixture(scope="session")
def rs_g2():
    return RootSystem(CartanMatrix.builtin("G2"))


@pytest.fixture(scope="session")
def prov3():
    return DecompositionProvider.builtin_sl2(3)


@pytest.fixture(scope="session")
def qr3(prov3):
    return QrData.builtin_sl2(prov3, 1)
