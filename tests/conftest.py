# test framework
from pytest import fixture
# local package
from sptlab import forms


@fixture
def bank_guard():
    """Yield the shared memo bank and restore its entries afterwards, so a
    test may clear it, seed it or replace a table in it."""
    saved = dict(forms._bank)
    yield forms._bank
    forms._bank.clear()
    forms._bank.update(saved)
