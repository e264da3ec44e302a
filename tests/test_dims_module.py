"""Dimension/phase vocabulary and operator signatures."""

import pytest

from repro.core.dims import (
    ALL_DIMS,
    ALL_PHASES,
    BATCHED_MATMUL_SIGNATURES,
    Dim,
    LINEAR_SIGNATURES,
    Phase,
)


class TestVocabulary:
    def test_dim_order(self):
        assert ALL_DIMS == (Dim.B, Dim.M, Dim.N, Dim.K)
        assert Dim.B < Dim.M < Dim.N < Dim.K

    def test_phase_order(self):
        assert ALL_PHASES == (Phase.FORWARD, Phase.BACKWARD, Phase.GRADIENT)

    def test_phase_values(self):
        assert Phase.FORWARD.value == "F"
        assert Phase.BACKWARD.value == "B"
        assert Phase.GRADIENT.value == "G"


class TestLinearSignatures:
    def test_forward_reduces_n(self):
        sig = LINEAR_SIGNATURES[Phase.FORWARD]
        assert sig.reduce_dims == {Dim.N}
        assert sig.output.name == "O"
        assert sig.output.dims == (Dim.B, Dim.M, Dim.K)

    def test_backward_reduces_k(self):
        sig = LINEAR_SIGNATURES[Phase.BACKWARD]
        assert sig.reduce_dims == {Dim.K}
        assert sig.output.name == "dI"

    def test_gradient_reduces_b_and_m(self):
        sig = LINEAR_SIGNATURES[Phase.GRADIENT]
        assert sig.reduce_dims == {Dim.B, Dim.M}
        assert sig.output.dims == (Dim.N, Dim.K)

    def test_tensors_include_output(self):
        sig = LINEAR_SIGNATURES[Phase.FORWARD]
        assert [t.name for t in sig.tensors] == ["I", "W", "O"]

    def test_tensor_dim_set(self):
        w = LINEAR_SIGNATURES[Phase.FORWARD].inputs[1]
        assert w.dims == (Dim.N, Dim.K)
        assert not w.is_output


class TestBatchedMatmulSignatures:
    def test_weight_carries_batch(self):
        w = BATCHED_MATMUL_SIGNATURES[Phase.FORWARD].inputs[1]
        assert Dim.B in w.dims

    def test_gradient_reduces_m_only(self):
        sig = BATCHED_MATMUL_SIGNATURES[Phase.GRADIENT]
        assert sig.reduce_dims == {Dim.M}

    def test_forward_backward_reduce_like_linear(self):
        assert BATCHED_MATMUL_SIGNATURES[Phase.FORWARD].reduce_dims == {Dim.N}
        assert BATCHED_MATMUL_SIGNATURES[Phase.BACKWARD].reduce_dims == {Dim.K}
