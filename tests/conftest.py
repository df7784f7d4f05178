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


@fixture
def identity_lines(monkeypatch):
    """Spy on a module's identity_report: spy_on(module) returns the dict,
    filled as the test runs, of check name -> (lhs, rhs) for each line."""
    seen = {}

    def spy_on(module):
        real = module.identity_report

        def spy(check, lhs, rhs, *args, **kw):
            seen[check] = (lhs, rhs)
            return real(check, lhs, rhs, *args, **kw)

        monkeypatch.setattr(module, "identity_report", spy)
        return seen

    return spy_on
