from __future__ import annotations

import inspect
import pickle

import pytest

from catfuse import errors

# constructor arguments of one instance of every error class
EXAMPLES = {
    errors.CatfuseError: ("a package error",),
    errors.MissingColumn: ("rent",),
    errors.UnknownLevel: (3, "region", "x"),
    errors.NonNumericResponse: (4, "abc"),
    errors.EmptyDataset: ("dataset has no rows",),
    errors.DegenerateFactor: ("region", 1),
    errors.UnobservedLevel: ("region", "n"),
    errors.MissingCoordinates: ("region",),
    errors.NotConverged: ("no convergence after 5 rounds",),
    errors.LayoutMismatch: ("theta has 4 entries, the layout 6",),
    errors.RankDeficient: ("collinear columns", ("a", "b")),
    errors.OlsUnavailable: ("level 3 has no rows", ("a",)),
    errors.FoldRankDeficient: (3, "d is 2"),
    errors.ShapeMismatch: ("factor 'g': expected 9 per-level values",),
}


def test_the_examples_cover_every_error_class():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.CatfuseError)}
    assert classes == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_an_error_survives_pickling(cls):
    # a process pool ships a child's error to its parent pickled
    error = cls(*EXAMPLES[cls])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
    assert copy.as_dict() == error.as_dict()


def test_an_error_without_a_factor_survives_pickling():
    copy = pickle.loads(pickle.dumps(errors.MissingCoordinates()))
    assert str(copy) == "no factor of the schema has spatial coordinates"
    assert copy.factor is None
