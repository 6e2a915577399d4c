import random

import pytest

from blindsigncrypt.crypto_suite import std_suite, toy_suite
from blindsigncrypt.group_math import TOY23, desk512
from blindsigncrypt.sdss import KeyPair


@pytest.fixture
def toy():
    return TOY23


@pytest.fixture(scope="session")
def desk():
    # the committed 512-bit / 160-bit set
    return desk512()


@pytest.fixture
def suite():
    return std_suite()


@pytest.fixture
def stub_suite():
    return toy_suite()


@pytest.fixture
def rng():
    return random.Random(20260808)


# the worked small-prime setting used throughout: x_A = 3, x_C = 4 under toy23
@pytest.fixture
def alice():
    return KeyPair(x=3, y=8)


@pytest.fixture
def carol():
    return KeyPair(x=4, y=16)
