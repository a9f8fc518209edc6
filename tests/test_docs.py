"""The worked examples in the package docstring and the README run as doctests."""

import doctest
from pathlib import Path

import solidcyl

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_docstring_examples():
    result = doctest.testmod(solidcyl)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
