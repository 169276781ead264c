"""A refusal (exit 2) is a plain CamshiftError whose message names its condition."""

import contextlib

import pytest

from camshift.errors import CamshiftError


@contextlib.contextmanager
def refused(match):
    """The block raises CamshiftError itself, not the budget (exit 3) or
    malformed-file (exit 4) error, with a message that `match` searches."""
    with pytest.raises(CamshiftError, match=match) as caught:
        yield caught
    assert type(caught.value) is CamshiftError, repr(caught.value)
