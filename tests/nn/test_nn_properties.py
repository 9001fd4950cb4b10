"""Property-based tests for NN invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dense, Flatten, ReLU, Sequential


@given(
    dims=st.tuples(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    ),
)
def test_flatten_preserves_values(dims):
    flat = Flatten(dims)
    assert flat.output_shape == (math.prod(dims),)
    assert flat.param_count == 0


@given(
    in_dim=st.integers(min_value=1, max_value=16),
    hidden=st.integers(min_value=1, max_value=16),
    out_dim=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=25, deadline=None)
def test_param_count_matches_materialized_weights(in_dim, hidden, out_dim):
    model = Sequential(
        [Dense((in_dim,), hidden), ReLU((hidden,)), Dense((hidden,), out_dim)]
    )
    # Two weight matrices and two bias vectors: the tensors a trained
    # artifact of this architecture would hold.
    expected = in_dim * hidden + hidden + hidden * out_dim + out_dim
    assert model.param_count == expected
    shapes = [s for layer in model.layers for s in layer.param_shapes().values()]
    assert sum(math.prod(s) for s in shapes) == expected
