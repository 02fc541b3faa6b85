"""The combinatorial map under ``hypothesis``-chosen flaws: ``validate``
never raises, faces come back or raise ``MalformedDiagramError``, and
both match the Dart-keyed oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cobkit import CombinatorialMap, identity_diagram, mend, validate
from conftest import (builder_corpus, combinatorial_map_oracle, map_verdict,
                      mutate, validate_oracle)

CORPUS = builder_corpus() + [mend(identity_diagram(8), "V", "U")]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CORPUS), st.randoms(use_true_random=False))
def test_mutated_map_property(d, rng):
    d = mutate(rng, d)
    assert validate(d) == validate_oracle(d)
    assert (map_verdict(CombinatorialMap, d)
            == map_verdict(combinatorial_map_oracle, d))
