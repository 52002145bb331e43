"""Cases of the input rules that the tests of their callers do not reach: a count at the default
bound, numpy's index range, and the sorted list of a JSON object's unknown keys."""
import numpy as np
import pytest

from pathfield.checks import INDEX_MAX, check_integer, check_object


def test_default_maximum_is_numpys_index_range():
    assert INDEX_MAX == np.iinfo(np.intp).max
    check_integer("count", INDEX_MAX)
    with pytest.raises(ValueError, match=rf"^count must be <= {INDEX_MAX}, not {INDEX_MAX + 1}$"):
        check_integer("count", INDEX_MAX + 1)


def test_unknown_keys_are_listed_sorted():
    doc = {"widht": 8, "depth": 2, "depht": 3}
    with pytest.raises(ValueError, match=r"^unknown head config keys: \['depht', 'widht'\]$"):
        check_object("head config", doc, ("depth", "width"))
