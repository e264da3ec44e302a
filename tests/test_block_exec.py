"""Block-level numerical execution and Eq. 9 traffic ground truth."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from block_exec import (  # noqa: E402  (test-side oracle)
    MlpShape,
    PartitionedMlp,
    measured_redistribution,
    reference_mlp_forward,
)
from repro.core.dims import Dim
from repro.core.spec import PartitionSpec

SHAPE = MlpShape(batch=4, seq=8, hidden=8, ffn=16)


def _run(fc1_text: str, fc2_text: str, n_bits: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((SHAPE.batch, SHAPE.seq, SHAPE.hidden))
    w1 = rng.standard_normal((SHAPE.hidden, SHAPE.ffn))
    w2 = rng.standard_normal((SHAPE.ffn, SHAPE.hidden))
    grad = rng.standard_normal((SHAPE.batch, SHAPE.seq, SHAPE.hidden))
    block = PartitionedMlp(
        PartitionSpec.from_string(fc1_text, n_bits),
        PartitionSpec.from_string(fc2_text, n_bits),
        SHAPE,
    )
    result = block.run_forward(inputs, w1, w2, grad)
    reference = reference_mlp_forward(inputs, w1, w2, grad)
    return result, reference


class TestBlockEquivalence:
    @pytest.mark.parametrize(
        "fc1,fc2,n",
        [
            ("K-K", "N-N", 2),          # Megatron column/row pair
            ("B-B", "B-B", 2),          # pure data parallel
            ("K-P2x2", "N-P2x2", 3),    # the paper's temporal MLP pair
            ("P2x2", "P2x2", 2),
            ("B-K", "N-B", 2),          # mismatched layouts
        ],
    )
    def test_matches_reference(self, fc1, fc2, n):
        result, reference = _run(fc1, fc2, n)
        for key in ("O", "dI", "dW1", "dW2"):
            assert np.allclose(result[key], reference[key]), (fc1, fc2, key)

    def test_traffic_zero_for_aligned_column_row(self):
        result, _ = _run("K-K", "N-N", 2)
        assert result["fc1_to_fc2_traffic"] == 0

    def test_traffic_positive_for_mismatch(self):
        result, _ = _run("B-K", "N-B", 2)
        assert result["fc1_to_fc2_traffic"] > 0


class TestTrafficGroundTruth:
    def _sizes(self):
        return {
            Dim.B: SHAPE.batch,
            Dim.M: SHAPE.seq,
            Dim.K: SHAPE.ffn,
            Dim.N: SHAPE.ffn,
        }

    def test_aligned_megatron_pair_free(self):
        traffic = measured_redistribution(
            PartitionSpec.from_string("K-K", 2),
            PartitionSpec.from_string("N-N", 2),
            self._sizes(),
        )
        assert traffic == 0

    def test_temporal_pair_skew(self):
        """Entering the temporal region skews half the devices' inputs."""
        traffic = measured_redistribution(
            PartitionSpec.from_string("K-P2x2", 3),
            PartitionSpec.from_string("N-P2x2", 3),
            self._sizes(),
        )
        assert traffic > 0

    def test_matches_cost_model_exactly(self, profiler8):
        """The Eq. 9 estimate equals ground truth on aligned grids."""
        from repro.core.cost.inter import InterOperatorCostModel, SliceTables
        from repro.graph.transformer import BlockShape, build_mlp_graph

        shape = BlockShape(
            batch=SHAPE.batch, seq=SHAPE.seq, hidden=SHAPE.hidden,
            heads=1, ffn=SHAPE.ffn,
        )
        graph = build_mlp_graph(shape)
        act, fc2 = graph.node("act"), graph.node("fc2")
        edge = next(e for e in graph.edges if e.dst == "fc2")
        inter = InterOperatorCostModel(profiler8)
        for act_text, fc2_text in [("K-K-K", "N-N-N"), ("K-M-K", "N-P2x2"),
                                   ("B-K-K", "K-B-B")]:
            act_spec = PartitionSpec.from_string(
                act_text, 3, legal_dims=act.legal_dims, allow_temporal=False
            )
            fc2_spec = PartitionSpec.from_string(fc2_text, 3)
            intra, inter_elems = inter.forward_traffic_matrix(
                edge,
                SliceTables.decode(act, [act_spec]),
                SliceTables.decode(fc2, [fc2_spec]),
            )
            predicted = float(intra[0, 0] + inter_elems[0, 0])
            truth = measured_redistribution(
                act_spec,
                fc2_spec,
                {Dim.B: SHAPE.batch, Dim.M: SHAPE.seq,
                 Dim.K: SHAPE.ffn, Dim.N: SHAPE.ffn},
            )
            assert predicted == pytest.approx(truth), (act_text, fc2_text)

    def test_cluster_mismatch_rejected(self):
        with pytest.raises(ValueError):
            measured_redistribution(
                PartitionSpec.from_string("K-K", 2),
                PartitionSpec.from_string("N-N-N", 3),
                self._sizes(),
            )
