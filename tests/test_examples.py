"""The examples in the package docstring and the README quick start run as
written (`...` in an expected output matches any text)."""

import doctest
from pathlib import Path

import hellycert

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_docstring_examples():
    result = doctest.testmod(hellycert, optionflags=doctest.ELLIPSIS)
    assert (result.failed, result.attempted) == (0, 4)


def test_readme_quick_start():
    result = doctest.testfile(str(README), module_relative=False, optionflags=doctest.ELLIPSIS)
    assert (result.failed, result.attempted) == (0, 8)
