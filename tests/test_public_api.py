import importlib

import pytest

import recurra
from recurra.certify import CertificationReport, HyperTermSpec, ResidueReduction
from recurra.check import Check
from recurra.exact import Polynomial, n
from recurra.guess import GuessResult
from recurra.sequences import OgfReport


def test_all_is_sorted_unique_and_resolves():
    names = recurra.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(recurra, name) is not None, name


def test_each_public_name_is_its_defining_modules_object():
    assert len(recurra.__all__) == 37
    for name in recurra.__all__:
        value = getattr(recurra, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value, name


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(recurra)
    assert set(recurra.__all__) <= set(listed)
    assert {"certify", "cli", "exact", "guess", "oeis", "sequences"} <= set(listed)


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from recurra import *", scope)
    assert set(recurra.__all__) <= set(scope)
    assert all(scope[name] is getattr(recurra, name) for name in recurra.__all__)


def test_an_unknown_name_is_an_attribute_error_naming_module_and_name():
    with pytest.raises(AttributeError, match="module 'recurra' has no attribute 'no_such_name'"):
        recurra.no_such_name
    assert not hasattr(recurra, "Fraction")


def test_a_submodule_resolves_on_the_package_after_importing_only_the_cli(fresh_python):
    code = (
        "import sys\n"
        "import recurra.cli\n"
        "print(recurra.sequences is sys.modules['recurra.sequences'], recurra.oeis.__name__)\n"
    )
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True recurra.oeis\n"


def test_importing_the_package_loads_no_submodule(fresh_python):
    code = "import sys, recurra\nprint(sorted(m for m in sys.modules if m.startswith('recurra.')))\n"
    done = fresh_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# -- the records: named tuples, immutable, equal by their fields ----------------

RECORDS = [
    (Check("sweep", False, "n=7", (7, 1), 0.5), {"witness": (7, 2)}),
    (GuessResult((None,), ()), {"candidates": ()}),
    (OgfReport(5, ((1, 2, 3),)), {"order": 6}),
    (ResidueReduction(0, (n,), n, 2), {"floor": 3}),
    (CertificationReport((ResidueReduction(0, (), Polynomial(), 5),), True, 5),
     {"certified": False}),
    (HyperTermSpec(1, n, 4 * n - 2, frozenset({0}), 1), {"n_min": 2}),
]


@pytest.mark.parametrize("record, change", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_a_record_refuses_assignment_and_compares_by_its_fields(record, change):
    cls = type(record)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    rebuilt = cls(**record._asdict())
    assert rebuilt is not record and rebuilt == record and hash(rebuilt) == hash(record)
    assert record == tuple(record)
    assert record._replace(**change) != record
