"""A slice of the differential corpus keeps its committed digests."""

from pathlib import Path

import corpus


def test_slice_output_is_unchanged():
    expected = corpus.read_digests(Path(corpus.__file__).with_name("corpus.sha256"))
    got = corpus.run("slice")
    assert got == {family: digest for (size, family), digest in expected.items() if size == "slice"}
