import pytest

from mpgram.field import FieldDomain


@pytest.fixture
def m61():
    return FieldDomain(scale_bits=16)


@pytest.fixture
def z5():
    return FieldDomain(scale_bits=0, p=5)


@pytest.fixture
def z251():
    return FieldDomain(scale_bits=0, p=251)

